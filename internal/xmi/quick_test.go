package xmi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"prophet/internal/uml"
)

// randomModel builds a structurally valid model from a seeded RNG: a
// handful of diagrams with mixed node kinds, random (XML-safe) names,
// tags, guards and payloads. It exercises every field the XMI codec
// serializes.
func randomModel(r *rand.Rand) *uml.Model {
	alpha := func(n int) string {
		const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _<>&\"'"
		b := make([]byte, 1+r.Intn(n))
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	m := uml.NewModel("rnd-" + alpha(6))
	nVars := r.Intn(4)
	for i := 0; i < nVars; i++ {
		scope := uml.ScopeGlobal
		if r.Intn(2) == 0 {
			scope = uml.ScopeLocal
		}
		m.AddVariable(uml.Variable{
			Name:  fmt.Sprintf("v%d", i),
			Type:  []string{"double", "int"}[r.Intn(2)],
			Scope: scope,
			Init:  []string{"", "0", "1 + 2"}[r.Intn(3)],
		})
	}
	nFuncs := r.Intn(3)
	for i := 0; i < nFuncs; i++ {
		f := uml.Function{Name: fmt.Sprintf("F%d", i), Body: "1 + 2*3"}
		for p := 0; p < r.Intn(3); p++ {
			f.Params = append(f.Params, uml.Param{Name: fmt.Sprintf("p%d", p), Type: "double"})
		}
		m.AddFunction(f)
	}
	nDiagrams := 1 + r.Intn(3)
	for di := 0; di < nDiagrams; di++ {
		d, err := m.AddDiagram(fmt.Sprintf("d%d", di))
		if err != nil {
			panic(err)
		}
		var prev uml.Node
		nNodes := 1 + r.Intn(6)
		for ni := 0; ni < nNodes; ni++ {
			var n uml.Node
			switch r.Intn(5) {
			case 0:
				a, _ := m.AddAction(d, "", alpha(8))
				a.SetCode(alpha(20))
				a.SetCostFunc([]string{"", "F0()"}[r.Intn(2)])
				if a.CostFunc() != "" && nFuncs == 0 {
					a.SetCostFunc("")
				}
				n = a
			case 1:
				a, _ := m.AddActivity(d, "", alpha(8), fmt.Sprintf("d%d", r.Intn(nDiagrams)))
				n = a
			case 2:
				l, _ := m.AddLoop(d, "", alpha(8), "3", fmt.Sprintf("d%d", r.Intn(nDiagrams)))
				l.SetVar("i")
				n = l
			default:
				kinds := []uml.Kind{uml.KindInitial, uml.KindFinal, uml.KindDecision,
					uml.KindMerge, uml.KindFork, uml.KindJoin}
				c, _ := m.AddControl(d, "", kinds[r.Intn(len(kinds))])
				n = c
			}
			if r.Intn(2) == 0 {
				n.SetStereotype([]string{"action+", "activity+", "custom+"}[r.Intn(3)])
			}
			for ti := 0; ti < r.Intn(3); ti++ {
				n.SetTag(fmt.Sprintf("t%d", ti), alpha(10))
			}
			if r.Intn(4) == 0 {
				n.AddConstraint(alpha(12))
			}
			if prev != nil && r.Intn(3) > 0 {
				e, _ := d.Connect(prev.ID(), n.ID(), []string{"", "else", "v0 > 0"}[r.Intn(3)])
				if e != nil && r.Intn(3) == 0 {
					e.SetWeight(float64(r.Intn(100)) / 100)
					e.SetTag("w", "x")
				}
			}
			prev = n
		}
	}
	return m
}

// TestQuickRandomModelRoundTrip: for arbitrary structurally-valid models,
// encode -> decode -> encode is a fixed point and the decoded model has
// the same shape.
func TestQuickRandomModelRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := randomModel(rand.New(rand.NewSource(seed)))
		s1, err := EncodeString(m)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		m2, err := DecodeString(s1)
		if err != nil {
			t.Logf("seed %d: decode: %v\n%s", seed, err, s1)
			return false
		}
		if m.Stats() != m2.Stats() {
			t.Logf("seed %d: stats %+v vs %+v", seed, m.Stats(), m2.Stats())
			return false
		}
		s2, err := EncodeString(m2)
		if err != nil {
			return false
		}
		if s1 != s2 {
			t.Logf("seed %d: not a fixed point", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomModelPayloadFidelity: code fragments, cost functions and
// guards survive the trip byte-for-byte for arbitrary XML-hostile text.
func TestQuickRandomModelPayloadFidelity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		s, err := EncodeString(m)
		if err != nil {
			return false
		}
		m2, err := DecodeString(s)
		if err != nil {
			return false
		}
		for di, d := range m.Diagrams() {
			d2 := m2.Diagrams()[di]
			for ni, n := range d.Nodes() {
				n2 := d2.Nodes()[ni]
				if a, ok := n.(*uml.ActionNode); ok {
					a2 := n2.(*uml.ActionNode)
					if a.Code() != a2.Code() || a.CostFunc() != a2.CostFunc() {
						return false
					}
				}
				if n.Name() != n2.Name() && !n.Kind().IsControl() {
					return false
				}
			}
			for ei, e := range d.Edges() {
				if d2.Edges()[ei].Guard() != e.Guard() {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
