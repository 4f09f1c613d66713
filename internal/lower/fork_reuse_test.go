package lower

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/sim"
	"prophet/internal/uml"
)

// Branch and thread frames are recycled across forks within a run. These
// cases drive the error paths through recycled frames and require the
// interpreter's exact error text, process names included.

// addForky adds diagram "forky": a two-branch fork whose first branch
// forks again, so every call spawns, joins and frees four frames, and a
// recycled frame is soon used to fork.
func addForky(b *builder.ModelBuilder) {
	f := b.Diagram("forky")
	f.Initial()
	f.Fork("fsplit")
	f.Loop("Short", "1", "leaf")
	f.Action("Long").Cost("1.5")
	f.Join("fmeet")
	f.Final()
	f.Flow("initial", "fsplit").
		Flow("fsplit", "Short").
		Flow("fsplit", "Long").
		Flow("Short", "fmeet").
		Flow("Long", "fmeet").
		Flow("fmeet", "final")
	l := b.Diagram("leaf")
	l.Initial()
	l.Fork("lsplit")
	l.Action("Left").Cost("0.25")
	l.Action("Right").Cost("0.5")
	l.Join("lmeet")
	l.Final()
	l.Flow("initial", "lsplit").
		Flow("lsplit", "Left").
		Flow("lsplit", "Right").
		Flow("Left", "lmeet").
		Flow("Right", "lmeet").
		Flow("lmeet", "final")
}

// retarget points e at a node ID the diagram does not have, and drops the
// model's memo of derived artifacts, as every uml edit does. The uml API
// refuses such edges, but the runtimes still guard against them, and this
// is the only way to reach that guard.
func retarget(t *testing.T, e *uml.Edge, to string) {
	t.Helper()
	field := func(v reflect.Value, name string) reflect.Value {
		f := v.Elem().FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("%s has no field %q", v.Type(), name)
		}
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	field(reflect.ValueOf(e), "to").SetString(to)
	memo := field(reflect.ValueOf(e.Diagram().Model()), "memo")
	memo.Set(reflect.Zero(memo.Type()))
}

// danglingNestedForkModel forks Lead and Busy. Lead's inner fork spawns
// Spin and then fails on a dangling edge, so Lead's frame fails while
// Spin — its stale branch — keeps forking, and so does Busy.
func danglingNestedForkModel(t *testing.T) *uml.Model {
	b := builder.New("dangling-nested")
	d := b.Diagram("main")
	d.Initial()
	d.Fork("outer")
	d.Action("Lead").Cost("1")
	d.Fork("inner")
	d.Loop("Spin", "3", "forky")
	d.Action("Gone").Cost("1")
	d.Join("ij")
	d.Loop("Busy", "6", "forky")
	d.Join("oj")
	d.Final()
	d.Flow("initial", "outer").
		Flow("outer", "Lead").
		Flow("outer", "Busy").
		Flow("Lead", "inner").
		Flow("inner", "Spin").
		Flow("inner", "Gone").
		Flow("Spin", "ij").
		Flow("Gone", "ij").
		Flow("ij", "oj").
		Flow("Busy", "oj").
		Flow("oj", "final")
	addForky(b)
	m := builder.MustBuild(b)
	main := m.Main()
	inner := main.NodeByName("inner")
	gone := main.NodeByName("Gone")
	for _, e := range main.Outgoing(inner.ID()) {
		if e.To() == gone.ID() {
			retarget(t, e, "ghost")
		}
	}
	return m
}

// runawayBranchModel forks warm-up rounds, then forks a branch whose
// loop never ends, so the runaway guard fires inside a recycled frame.
func runawayBranchModel() *uml.Model {
	b := builder.New("runaway-branch")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Warm", "4", "forky")
	d.Fork("split")
	d.Loop("Forever", "1000000000000", "tick")
	d.Loop("Rounds", "2", "forky")
	d.Join("meet")
	d.Final()
	d.Flow("initial", "Warm").
		Flow("Warm", "split").
		Flow("split", "Rounds").
		Flow("split", "Forever").
		Flow("Rounds", "meet").
		Flow("Forever", "meet").
		Flow("meet", "final")
	tick := b.Diagram("tick")
	tick.Initial()
	tick.Action("Tick").Cost("0.001")
	tick.Final()
	tick.Chain("initial", "Tick", "final")
	addForky(b)
	return builder.MustBuild(b)
}

// deadlockModel forks warm-up rounds, then forks a branch that receives
// a message nobody sends and a branch whose parallel region's threads do
// the same, so the run deadlocks with recycled branch and thread frames.
func deadlockModel() *uml.Model {
	b := builder.New("deadlock")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Warm", "3", "forky")
	d.Fork("split")
	d.MPI("Wait", "mpi_recv").Tag("src", "0")
	team := d.Activity("Team", "team")
	team.Node().SetStereotype("omp_parallel")
	d.Join("meet")
	d.Final()
	d.Flow("initial", "Warm").
		Flow("Warm", "split").
		Flow("split", "Wait").
		Flow("split", "Team").
		Flow("Wait", "meet").
		Flow("Team", "meet").
		Flow("meet", "final")
	body := b.Diagram("team")
	body.Initial()
	body.Loop("Pre", "2", "forky")
	body.MPI("Listen", "mpi_recv").Tag("src", "0")
	body.Final()
	body.Chain("initial", "Pre", "Listen", "final")
	addForky(b)
	return builder.MustBuild(b)
}

func TestForkReuseErrorPaths(t *testing.T) {
	omp := interp.Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 1, Threads: 2}}
	cases := []struct {
		name  string
		model func(*testing.T) *uml.Model
		cfg   interp.Config
		want  []string // substrings of the lowered error
	}{
		{
			name:  "dangling-inner-fork",
			model: danglingNestedForkModel,
			want:  []string{`process "p0" failed`, `dangling fork edge`},
		},
		{
			name:  "runaway-branch",
			model: func(*testing.T) *uml.Model { return runawayBranchModel() },
			cfg:   interp.Config{MaxSteps: 5000},
			want:  []string{`process "p0" failed`, `exceeded 5000 element executions at "Tick"`},
		},
		{
			name:  "deadlock-fork-and-omp",
			model: func(*testing.T) *uml.Model { return deadlockModel() },
			cfg:   omp,
			want:  []string{"deadlock", "p0.fork", "p0.omp"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(t)
			assertIdentical(t, m, tc.cfg)
			pr, err := interp.Compile(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			lp := Lower(pr)
			_, first := lp.Run(tc.cfg)
			if first == nil {
				t.Fatal("lowered run succeeded; want an error")
			}
			for _, w := range tc.want {
				if !strings.Contains(first.Error(), w) {
					t.Errorf("error %q does not contain %q", first, w)
				}
			}
			// A second run of the same program starts from a fresh free
			// list and must fail the same way.
			if _, again := lp.Run(tc.cfg); again == nil || again.Error() != first.Error() {
				t.Errorf("second run: %v, first run: %v", again, first)
			}
		})
	}
}

// The deadlock report names each blocked branch and thread exactly.
func TestForkReuseDeadlockNames(t *testing.T) {
	cfg := interp.Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 1, Threads: 2}}
	m := deadlockModel()
	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Lower(pr).Run(cfg)
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want a *sim.DeadlockError, got %T: %v", err, err)
	}
	split := m.Main().NodeByName("split").ID()
	team := m.Main().NodeByName("Team").ID()
	want := []string{
		"p0",
		"p0.fork" + split + ".0",
		"p0.fork" + split + ".1",
		"p0.omp" + team + ".t0",
		"p0.omp" + team + ".t1",
	}
	if !reflect.DeepEqual(dl.Processes, want) {
		t.Errorf("blocked processes %q, want %q", dl.Processes, want)
	}
}
