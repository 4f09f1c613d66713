package uml_test

import (
	"strings"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/uml"
)

// regionCase builds one model; dangle lists "from->to" edges (by node
// name) of the main diagram to retarget at a node that does not exist.
type regionCase struct {
	name   string
	build  func(b *builder.ModelBuilder, d *builder.DiagramBuilder)
	dangle []string
	want   string // first error, without the generator's package prefix
	cycle  bool   // cppgen appends its <<loop+>> hint
}

const loopHint = "; model loops with <<loop+>> elements"

var regionCases = []regionCase{
	{
		name: "dangling edge",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Action("A").Cost("1")
			d.Chain("initial", "A", "final")
		},
		dangle: []string{"A->final"},
		want:   `diagram "main": dangling edge from "A"`,
	},
	{
		name: "two successors",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Chain("initial", "A", "B", "final").Flow("A", "final")
		},
		want: `diagram "main": Action "A" has 2 successors`,
	},
	{
		name: "unstructured cycle",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Chain("initial", "A", "B", "A")
		},
		want:  `diagram "main": unstructured cycle through node "A"`,
		cycle: true,
	},
	{
		// Branch B's marks are undone once the decision closes at M, so
		// the flow from M back into B only trips over M, which is still
		// on the path.
		name: "cycle back into a closed branch",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "x > 0").FlowIf("D", "B", "else").
				Chain("A", "M").Chain("B", "M", "B")
		},
		want:  `diagram "main": unstructured cycle through node "M"`,
		cycle: true,
	},
	{
		name: "decision with one branch",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Flow("initial", "D").FlowIf("D", "final", "x > 0")
		},
		want: `diagram "main": decision "D" has 1 branch(es)`,
	},
	{
		// A lone else branch is a decision with one branch: with two or
		// more, a second else or an unguarded branch is met first.
		name: "decision with only an else branch",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Flow("initial", "D").FlowIf("D", "final", "else")
		},
		want: `diagram "main": decision "D" has 1 branch(es)`,
	},
	{
		name: "two else branches",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "else").FlowIf("D", "B", "else").
				Chain("A", "M", "final").Flow("B", "M")
		},
		want: `diagram "main": decision "D" has two else branches`,
	},
	{
		name: "unguarded branch",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "x > 0").Flow("D", "M").
				Chain("A", "M", "final")
		},
		want: `diagram "main": unguarded branch out of decision "D"`,
	},
	{
		name: "weighted and guarded branches mixed",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowWeighted("D", "A", 0.5).FlowIf("D", "M", "x > 0").
				Chain("A", "M", "final")
		},
		want: `diagram "main": decision "D" mixes weighted and guarded branches`,
	},
	{
		name: "fork with one branch",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Fork("F")
			d.Action("A").Cost("1")
			d.Chain("initial", "F", "A", "final")
		},
		want: `diagram "main": fork "F" has 1 branch(es)`,
	},
	{
		name: "dangling branch edge",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "x > 0").FlowIf("D", "M", "else").
				Chain("A", "M", "final")
		},
		dangle: []string{"D->A"},
		want:   `diagram "main": dangling branch edge`,
	},
	{
		name: "dangling fork edge",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Fork("F")
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Join("J")
			d.Flow("initial", "F").Chain("F", "A", "J", "final").Chain("F", "B", "J")
		},
		dangle: []string{"F->B"},
		want:   `diagram "main": dangling fork edge`,
	},
	{
		name: "edge into the initial node",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Action("A").Cost("1")
			d.Chain("initial", "A", "initial")
		},
		want: `diagram "main": unexpected InitialNode mid-flow`,
	},
	{
		name: "body without initial node",
		build: func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			sub := b.Diagram("sub")
			sub.Action("S").Cost("1")
			d.Activity("SA", "sub")
			d.Chain("initial", "SA", "final")
		},
		want: `diagram "sub" has no initial node`,
	},
	{
		name: "cyclic activity nesting",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Activity("Self", "main")
			d.Chain("initial", "Self", "final")
		},
		want: `cyclic activity nesting through diagram "main"`,
	},
	{
		// Ordering: the walk finishes branch 1 before it looks at
		// branch 2, so branch 1's defect wins over a dangling edge on
		// branch 2 ...
		name: "branch 1 defect before branch 2 dangling edge",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Action("C").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "x > 0").FlowIf("D", "B", "else").
				Chain("A", "M", "final").Flow("A", "C").Chain("B", "M")
		},
		dangle: []string{"D->B"},
		want:   `diagram "main": Action "A" has 2 successors`,
	},
	{
		// ... and over arm 2's guard, which neither generator can render.
		name: "branch 1 defect before arm 2 guard",
		build: func(_ *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Action("B").Cost("1")
			d.Action("C").Cost("1")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "x > 0").FlowIf("D", "B", "x +").
				Chain("A", "M", "final").Flow("A", "C").Chain("B", "M")
		},
		want: `diagram "main": Action "A" has 2 successors`,
	},
}

// TestRegionDefects pins each structural defect of the region tree to the
// first error both generators report, in the same order relative to their
// own rendering errors.
func TestRegionDefects(t *testing.T) {
	for _, tc := range regionCases {
		t.Run(tc.name, func(t *testing.T) {
			b := builder.New("m")
			b.Global("x", "double")
			d := b.Diagram("main")
			d.Initial()
			d.Final()
			tc.build(b, d)
			m, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			main := m.Main()
			for _, fromTo := range tc.dangle {
				from, to, _ := strings.Cut(fromTo, "->")
				src, dst := main.NodeByName(from), main.NodeByName(to)
				for _, e := range main.Outgoing(src.ID()) {
					if e.To() == dst.ID() {
						uml.Retarget(e, "ghost")
					}
				}
			}

			wantCpp := "cppgen: " + tc.want
			if tc.cycle {
				wantCpp += loopHint
			}
			if _, err := cppgen.New().Generate(m); err == nil || err.Error() != wantCpp {
				t.Errorf("cppgen: got %v\nwant %s", err, wantCpp)
			}
			if _, err := gogen.New().Generate(m); err == nil || err.Error() != "gogen: "+tc.want {
				t.Errorf("gogen: got %v\nwant gogen: %s", err, tc.want)
			}
		})
	}
}
