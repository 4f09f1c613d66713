package expr

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"prophet/internal/sim"
)

// The draw contract: SlotDist.Sample (lowered backend) and Dist.Sample
// (interp reference) return bit-identical values from twin seeded
// samplers, whether the arguments folded to constants, are evaluated
// from slots, or a mix; and a failing argument consumes no draw.

// drawRules places the variables the draw tests use, each in a different
// kind of slot; p has no slot and resolves through the fallback.
var drawRules = map[string]SlotRule{
	"a":     {Kind: SlotLocal, Local: 0, Global: -1},
	"sigma": {Kind: SlotLocalDyn, Local: 1, Global: -1},
	"scale": {Kind: SlotGlobal, Local: -1, Global: 0},
	"mu":    {Kind: SlotGlobal, Local: -1, Global: 1},
}

func drawRule(name string) SlotRule {
	if r, ok := drawRules[name]; ok {
		return r
	}
	return SlotRule{Kind: SlotDynamic, Local: -1, Global: -1}
}

// drawEnvs binds the same values in a map environment (for Dist.Sample)
// and a slot frame (for SlotDist.Sample); set updates both.
type drawEnvs struct {
	env   *MapEnv
	slots *SlotEnv
}

func newDrawEnvs() *drawEnvs {
	fb := NewMapEnv()
	return &drawEnvs{
		env: NewMapEnv(),
		slots: &SlotEnv{
			Locals:   make([]float64, 2),
			Defined:  []bool{true, true},
			Globals:  make([]float64, 2),
			Fallback: Chain{fb, Builtins},
		},
	}
}

func (d *drawEnvs) set(i int) {
	vals := map[string]float64{
		"a":     0.001 * float64(1+i%5),
		"sigma": 0.0005 * float64(1+i%3),
		"scale": 1 + float64(i%7)/7,
		"mu":    0.004 + 0.001*float64(i%4),
		"p":     0.002 * float64(1+i%2),
	}
	for name, v := range vals {
		d.env.Set(name, v)
		r := drawRule(name)
		switch r.Kind {
		case SlotLocal, SlotLocalDyn:
			d.slots.Locals[r.Local] = v
		case SlotGlobal:
			d.slots.Globals[r.Global] = v
		default:
			d.slots.Fallback.(Chain)[0].(*MapEnv).Set(name, v)
		}
	}
}

// countingSampler counts the draws taken from the wrapped sampler.
type countingSampler struct {
	Sampler
	n int
}

func (c *countingSampler) Float64() float64 { c.n++; return c.Sampler.Float64() }
func (c *countingSampler) Uniform(a, b float64) float64 {
	c.n++
	return c.Sampler.Uniform(a, b)
}
func (c *countingSampler) Exponential(mean float64) float64 {
	c.n++
	return c.Sampler.Exponential(mean)
}
func (c *countingSampler) Normal(mean, sd float64) float64 {
	c.n++
	return c.Sampler.Normal(mean, sd)
}

func mustParseDist(t testing.TB, src string) *Dist {
	t.Helper()
	d, ok := ParseDist(src)
	if !ok {
		t.Fatalf("ParseDist(%q) did not recognize a distribution literal", src)
	}
	return d
}

// longEmpirical returns an empirical literal with more arguments than
// the stack buffer holds; withVar makes the last one a slot read.
func longEmpirical(withVar bool) string {
	args := make([]string, distStackArgs+3)
	for i := range args {
		args[i] = fmt.Sprint(0.001 * float64(i+1))
	}
	if withVar {
		args[len(args)-1] = "a"
	}
	return "empirical(" + strings.Join(args, ", ") + ")"
}

// The slot-resolved form must consume the seed stream bit-identically to
// the map-backed form — the property the lowered-equivalence oracle
// relies on with stochastic tags.
func TestSlotDistMatchesDist(t *testing.T) {
	const draws = 10_000
	for _, tc := range []struct {
		src    string
		folded bool // every argument folds, so the lowered draw evaluates nothing
	}{
		// Constant arguments, every family.
		{"exp(0.002)", true},
		{"normal(0.005, 0.002)", true},
		{"uniform(0.001, 0.003)", true},
		{"empirical(0.001, 0.004, 0.01)", true},
		// Closed expressions fold to constants.
		{"exp(2*0.001)", true},
		{"normal(-(0.5), 1)", true},
		{"uniform(sqrt(4)*0.001, 0.001 + 0.002)", true},
		{"empirical(1/4, 2 > 1 ? 0.5 : 0.7)", true},
		// Slot-backed and fallback-resolved arguments.
		{"exp(0.002*scale)", false},
		{"normal(mu, sigma)", false},
		{"uniform(a, a + p)", false},
		{"empirical(a, mu, p)", false},
		// Mixed constant and evaluated arguments.
		{"normal(mu, 0.002)", false},
		{"uniform(0.001, 0.001 + a*scale)", false},
		{"empirical(0.001, a, 2*0.002, p)", false},
		// More arguments than the stack buffer.
		{longEmpirical(false), true},
		{longEmpirical(true), false},
	} {
		t.Run(tc.src, func(t *testing.T) {
			d := mustParseDist(t, tc.src)
			sd := d.Resolve(drawRule)
			if got := sd.consts != nil; got != tc.folded {
				t.Fatalf("constant draw path = %v, want %v", got, tc.folded)
			}
			envs := newDrawEnvs()
			env := Chain{envs.env, Builtins}
			ref, low := sim.NewStream(7), sim.NewStream(7)
			for i := 0; i < draws; i++ {
				envs.set(i)
				want, err := d.Sample(env, ref)
				if err != nil {
					t.Fatalf("Dist.Sample: %v", err)
				}
				got, err := sd.Sample(envs.slots, low)
				if err != nil {
					t.Fatalf("SlotDist.Sample: %v", err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("draw %d: lowered %v, reference %v", i, got, want)
				}
			}
		})
	}
}

// An undefined argument fails with the literal's source and the
// variable's name, on both backends, without consuming a draw.
func TestDistUndefinedArgConsumesNoDraw(t *testing.T) {
	const src = "normal(mu, missing)"
	const wantErr = `distribution normal(mu, missing): expr: undefined variable "missing"`
	d := mustParseDist(t, src)
	sd := d.Resolve(drawRule)
	envs := newDrawEnvs()
	envs.set(0)

	ref := &countingSampler{Sampler: sim.NewStream(3)}
	if _, err := d.Sample(Chain{envs.env, Builtins}, ref); err == nil || err.Error() != wantErr {
		t.Errorf("Dist.Sample error = %v, want %q", err, wantErr)
	}
	low := &countingSampler{Sampler: sim.NewStream(3)}
	if _, err := sd.Sample(envs.slots, low); err == nil || err.Error() != wantErr {
		t.Errorf("SlotDist.Sample error = %v, want %q", err, wantErr)
	}
	if ref.n != 0 || low.n != 0 {
		t.Errorf("failed draws consumed %d (reference) and %d (lowered) samples, want 0", ref.n, low.n)
	}
}

// Draws with at most distStackArgs arguments do not allocate, on either
// backend.
func TestDistSampleAllocs(t *testing.T) {
	envs := newDrawEnvs()
	envs.set(1)
	var env Env = Chain{envs.env, Builtins}
	s := sim.NewStream(1)
	for _, src := range []string{
		"empirical(0.001, 0.004, 0.01)",
		"exp(0.002*scale)",
		"empirical(0.001, a, 2*0.002, p)",
	} {
		d := mustParseDist(t, src)
		sd := d.Resolve(drawRule)
		if n := testing.AllocsPerRun(100, func() { _, _ = sd.Sample(envs.slots, s) }); n != 0 {
			t.Errorf("SlotDist.Sample(%s): %v allocs per draw, want 0", src, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = d.Sample(env, s) }); n != 0 {
			t.Errorf("Dist.Sample(%s): %v allocs per draw, want 0", src, n)
		}
	}
}

// BenchmarkSlotDistSample measures one lowered draw: constant arguments
// (no evaluation) and slot-backed arguments (evaluated into the stack
// buffer). Both report 0 allocs/op.
func BenchmarkSlotDistSample(b *testing.B) {
	for _, src := range []string{
		"empirical(0.001, 0.004, 0.01)",
		"normal(0.005, 0.002)",
		"exp(0.002*scale)",
		"uniform(a, a + p)",
	} {
		b.Run(src, func(b *testing.B) {
			sd := mustParseDist(b, src).Resolve(drawRule)
			envs := newDrawEnvs()
			envs.set(1)
			s := sim.NewStream(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sd.Sample(envs.slots, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
