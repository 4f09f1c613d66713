package interp

import (
	"math"
	"strings"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/machine"
	"prophet/internal/profile"
	"prophet/internal/samples"
	"prophet/internal/testutil"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

func compile(t *testing.T, m *uml.Model) *Program {
	t.Helper()
	pr, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func run(t *testing.T, m *uml.Model, cfg Config) *Result {
	t.Helper()
	res, err := compile(t, m).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSampleModelSemantics executes the paper's sample model exactly as the
// generated C++ would: A1's code fragment sets GV=10 and P=4, so the
// branch takes activity SA, and the makespan is
// FA1 + FSA1 + FSA2(0) + FA4 = 8.5 + 5 + 0.1 + 6 ... computed from the
// cost functions with P = 4.
func TestSampleModelSemantics(t *testing.T) {
	res := run(t, samples.Sample(), Config{})
	// FA1 = 0.5 + 2*4 = 8.5; FSA1 = 5; FSA2(0) = 0.1; FA4 = 1 + 4 = 5.
	want := 8.5 + 5 + 0.1 + 5
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Globals["GV"] != 10 || res.Globals["P"] != 4 {
		t.Errorf("globals = %v", res.Globals)
	}
	sum, err := trace.Summarize(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// A2 must not appear: the branch took SA.
	if _, ok := sum.Elements["A2"]; ok {
		t.Error("A2 executed despite GV > 0")
	}
	for _, name := range []string{"A1", "SA", "SA1", "SA2", "A4"} {
		if _, ok := sum.Elements[name]; !ok {
			t.Errorf("element %s missing from trace", name)
		}
	}
	if sum.Elements["A1"].Total != 8.5 {
		t.Errorf("A1 time = %v, want 8.5", sum.Elements["A1"].Total)
	}
	// SA's inclusive time covers SA1 + SA2.
	if math.Abs(sum.Elements["SA"].Total-5.1) > 1e-12 {
		t.Errorf("SA inclusive = %v, want 5.1", sum.Elements["SA"].Total)
	}
}

func TestSampleElseBranch(t *testing.T) {
	// Force GV <= 0: strip A1's code fragment so the override survives.
	m := samples.Sample()
	a1 := m.Main().NodeByName("A1").(*uml.ActionNode)
	a1.SetCode("P = 4;") // keep P but do not touch GV
	res := run(t, m, Config{Globals: map[string]float64{"GV": -1}})
	sum, err := trace.Summarize(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sum.Elements["SA1"]; ok {
		t.Error("SA executed despite GV <= 0")
	}
	if _, ok := sum.Elements["A2"]; !ok {
		t.Error("A2 missing: else branch not taken")
	}
	// FA1 + FA2 + FA4 = 8.5 + 12 + 5
	want := 8.5 + 12 + 5.0
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// TestKernel6Equivalence verifies the paper's Figure 3 claim: the
// collapsed single-action model (Figure 3c) and the detailed loop-nest
// model (Figure 3b) predict the same execution time.
func TestKernel6Equivalence(t *testing.T) {
	globals := map[string]float64{"N": 10, "M": 3, "c": 0.5}
	collapsed := run(t, samples.Kernel6(), Config{Globals: globals})
	detailed := run(t, samples.Kernel6Detailed(), Config{Globals: globals})
	want := 3 * (10 - 1) * 10 / 2 * 0.5 // M * (N-1)*N/2 * c = 67.5
	if math.Abs(collapsed.Makespan-want) > 1e-9 {
		t.Errorf("collapsed = %v, want %v", collapsed.Makespan, want)
	}
	if math.Abs(detailed.Makespan-collapsed.Makespan) > 1e-9 {
		t.Errorf("detailed (%v) != collapsed (%v)", detailed.Makespan, collapsed.Makespan)
	}
	// The detailed model executed the W statement M * (N-1)*N/2 times.
	sum, err := trace.Summarize(detailed.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Elements["W"].Count; got != 135 {
		t.Errorf("W executions = %d, want 135", got)
	}
}

// TestTimeTagFallback reproduces Figure 1(b)'s usage: an <<action+>> with
// `time = 10` and no cost function charges 10 time units.
func TestTimeTagFallback(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "3")
	d := b.Diagram("main")
	d.Initial()
	d.Action("SampleAction").Tag("id", "1").Tag("type", "SAMPLE").Tag("time", "10")
	// An explicit cost function still wins over the time tag.
	d.Action("Both").Cost("F()").Tag("time", "99")
	d.Final()
	d.Chain("initial", "SampleAction", "Both", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, Config{})
	if math.Abs(res.Makespan-13) > 1e-12 {
		t.Errorf("makespan = %v, want 13 (time tag 10 + cost function 3)", res.Makespan)
	}
	sum, _ := trace.Summarize(res.Trace)
	if sum.Elements["SampleAction"].Total != 10 {
		t.Errorf("time tag not charged: %v", sum.Elements["SampleAction"].Total)
	}
	if sum.Elements["Both"].Total != 3 {
		t.Errorf("cost function should win over time tag: %v", sum.Elements["Both"].Total)
	}
}

func TestLoopVariableScoping(t *testing.T) {
	// The loop variable is visible in the body and restored afterwards.
	b := builder.New("m")
	b.Global("acc", "double")
	b.Function("F", nil, "i + 1")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("L", "4", "body").Var("i")
	d.Final()
	d.Chain("initial", "L", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("W").Cost("F()").Code("acc = acc + i;")
	body.Final()
	body.Chain("initial", "W", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, Config{})
	// cost sum: (0+1)+(1+1)+(2+1)+(3+1) = 10; acc = 0+1+2+3 = 6.
	testutil.AssertTime(t, "makespan", res.Makespan, 10)
	if res.Globals["acc"] != 6 {
		t.Errorf("acc = %v, want 6", res.Globals["acc"])
	}
}

func TestProcessesContendForProcessors(t *testing.T) {
	// kernel6 with 4 processes on 1 node / 1 processor: 4x serial time.
	globals := map[string]float64{"N": 10, "M": 2, "c": 0.1}
	serial := 2 * (10 - 1) * 10 / 2 * 0.1 // 9
	cfg := Config{
		Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 4, Threads: 1},
		Globals: globals,
	}
	res := run(t, samples.Kernel6(), cfg)
	if math.Abs(res.Makespan-4*serial) > 1e-9 {
		t.Errorf("makespan = %v, want %v (serialized)", res.Makespan, 4*serial)
	}
	if len(res.CPUUtilization) != 1 || math.Abs(res.CPUUtilization[0]-1) > 1e-9 {
		t.Errorf("cpu utilization = %v, want [1]", res.CPUUtilization)
	}

	// Same load on 4 processors: no stretch.
	cfg.Params.ProcessorsPerNode = 4
	res = run(t, samples.Kernel6(), cfg)
	if math.Abs(res.Makespan-serial) > 1e-9 {
		t.Errorf("makespan = %v, want %v (parallel)", res.Makespan, serial)
	}
}

func TestContentionPolicyChoice(t *testing.T) {
	// Under both policies total throughput is conserved; the makespan of
	// identical jobs is the same, but PS makes partial progress visible.
	globals := map[string]float64{"N": 10, "M": 2, "c": 0.1}
	cfg := Config{
		Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 4, Threads: 1},
		Globals: globals,
	}
	fcfs := run(t, samples.Kernel6(), cfg)
	cfg.Policy = machine.PolicyPS
	ps := run(t, samples.Kernel6(), cfg)
	if math.Abs(fcfs.Makespan-ps.Makespan) > 1e-9 {
		t.Errorf("same-size jobs: makespans should agree: fcfs %v, ps %v", fcfs.Makespan, ps.Makespan)
	}
	// With heterogeneous jobs the two policies differ: give each process
	// work proportional to pid+1.
	b := builder.New("hetero")
	b.Function("F", nil, "(pid + 1) * 10")
	d := b.Diagram("main")
	d.Initial()
	d.Action("Work").Cost("F()")
	d.Final()
	d.Chain("initial", "Work", "final")
	m, _ := b.Build()
	cfg2 := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 2, Threads: 1}}
	fc := run(t, m, cfg2)
	cfg2.Policy = machine.PolicyPS
	pss := run(t, m, cfg2)
	// Total work 10+20=30 on one processor: both end at 30.
	if math.Abs(fc.Makespan-30) > 1e-9 || math.Abs(pss.Makespan-30) > 1e-9 {
		t.Fatalf("makespans = %v / %v, want 30", fc.Makespan, pss.Makespan)
	}
	// But the short job's completion differs: FCFS at 10, PS at 20
	// (shares until the short job's 10 units are done at rate 1/2).
	sumF, _ := trace.Summarize(fc.Trace)
	sumP, _ := trace.Summarize(pss.Trace)
	if sumF.Elements["Work"].Min != 10 {
		t.Errorf("FCFS short job time = %v, want 10", sumF.Elements["Work"].Min)
	}
	if math.Abs(sumP.Elements["Work"].Min-20) > 1e-9 {
		t.Errorf("PS short job time = %v, want 20", sumP.Elements["Work"].Min)
	}
}

func TestMessagePassingRing(t *testing.T) {
	// Rank 0 sends to rank 1; every other rank receives from its left
	// neighbor and forwards, closing back to 0. Models a token ring.
	b := builder.New("ring")
	b.Global("sz", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("who")
	d.MPI("Send0", profile.MPISend).Tag("dest", "1").Tag("size", "sz")
	d.MPI("RecvBack", profile.MPIRecv).Tag("src", "processes - 1")
	d.MPI("RecvLeft", profile.MPIRecv).Tag("src", "pid - 1")
	d.MPI("Forward", profile.MPISend).Tag("dest", "(pid + 1) % processes").Tag("size", "sz")
	d.Merge("done")
	d.Final()
	d.Flow("initial", "who")
	d.FlowIf("who", "Send0", "pid == 0")
	d.FlowIf("who", "RecvLeft", "else")
	d.Flow("Send0", "RecvBack")
	d.Flow("RecvBack", "done")
	d.Flow("RecvLeft", "Forward")
	d.Flow("Forward", "done")
	d.Flow("done", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := machine.NetParams{LatencyIntra: 1, BandwidthIntra: 0, LatencyInter: 1, BandwidthInter: 0}
	cfg := Config{
		Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: 4, Threads: 1},
		Net:     &net,
		Globals: map[string]float64{"sz": 8},
	}
	res := run(t, m, cfg)
	// 4 hops of latency 1.
	if math.Abs(res.Makespan-4) > 1e-9 {
		t.Errorf("ring makespan = %v, want 4", res.Makespan)
	}
}

func TestSendrecvRingShift(t *testing.T) {
	// Every rank simultaneously sends right and receives from the left —
	// the classic ring shift that deadlocks with naive blocking sends but
	// is safe with MPI_Sendrecv semantics.
	b := builder.New("shift")
	d := b.Diagram("main")
	d.Initial()
	d.MPI("Shift", profile.MPISendrecv).
		Tag("dest", "(pid + 1) % processes").
		Tag("src", "(pid + processes - 1) % processes").
		Tag("size", "1024")
	d.Final()
	d.Chain("initial", "Shift", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := machine.NetParams{LatencyIntra: 1, LatencyInter: 1}
	cfg := Config{
		Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: 8, Threads: 1},
		Net:    &net,
	}
	res := run(t, m, cfg)
	// One hop of latency 1 for everyone, all overlapped.
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Errorf("ring shift makespan = %v, want 1", res.Makespan)
	}
	sum, _ := trace.Summarize(res.Trace)
	if sum.Elements["Shift"].Count != 8 {
		t.Errorf("Shift count = %d, want 8", sum.Elements["Shift"].Count)
	}
}

func TestBarrierElement(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "pid * 10")
	d := b.Diagram("main")
	d.Initial()
	d.Action("Work").Cost("F()")
	d.MPI("Bar", profile.MPIBarrier)
	d.Action("After").Cost("1")
	d.Final()
	d.Chain("initial", "Work", "Bar", "After", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: 3, Threads: 1}}
	res := run(t, m, cfg)
	// Slowest rank works 20; everyone leaves the barrier at 20, then +1.
	if math.Abs(res.Makespan-21) > 1e-9 {
		t.Errorf("makespan = %v, want 21", res.Makespan)
	}
}

func TestBroadcastAndReduceElements(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.MPI("Bc", profile.MPIBroadcast).Tag("size", "1e6")
	d.MPI("Rd", profile.MPIReduce).Tag("size", "8")
	d.Final()
	d.Chain("initial", "Bc", "Rd", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: machine.SystemParams{Nodes: 2, ProcessorsPerNode: 4, Processes: 8, Threads: 1}}
	res := run(t, m, cfg)
	if res.Makespan <= 0 {
		t.Errorf("collectives should cost time, makespan = %v", res.Makespan)
	}
	sum, _ := trace.Summarize(res.Trace)
	if sum.Elements["Bc"].Count != 8 || sum.Elements["Rd"].Count != 8 {
		t.Errorf("collective participation wrong: %+v", sum.Elements)
	}
}

func TestForkJoinParallelBranches(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "10")
	b.Function("G", nil, "4")
	d := b.Diagram("main")
	d.Initial()
	d.Fork("fork")
	d.Action("Slow").Cost("F()")
	d.Action("Fast").Cost("G()")
	d.Join("join")
	d.Action("After").Cost("1")
	d.Final()
	d.Flow("initial", "fork")
	d.Flow("fork", "Slow")
	d.Flow("fork", "Fast")
	d.Flow("Slow", "join")
	d.Flow("Fast", "join")
	d.Chain("join", "After", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 4, Processes: 1, Threads: 1}}
	res := run(t, m, cfg)
	// Parallel branches: max(10, 4) + 1.
	if math.Abs(res.Makespan-11) > 1e-9 {
		t.Errorf("makespan = %v, want 11", res.Makespan)
	}
}

func TestOmpParallelRegion(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "10")
	d := b.Diagram("main")
	d.Initial()
	par := d.Activity("Par", "body")
	par.Node().SetStereotype(profile.OMPParallel)
	d.Final()
	d.Chain("initial", "Par", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Work").Cost("F()")
	body.Final()
	body.Chain("initial", "Work", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 4 threads of 10s work on 2 processors: 20s.
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 1, Threads: 4}}
	res := run(t, m, cfg)
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Errorf("parallel region makespan = %v, want 20", res.Makespan)
	}
	// With 4 processors it collapses to 10s.
	cfg.Params.ProcessorsPerNode = 4
	res = run(t, m, cfg)
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Errorf("parallel region makespan = %v, want 10", res.Makespan)
	}
	sum, _ := trace.Summarize(res.Trace)
	if sum.Elements["Work"].Count != 4 {
		t.Errorf("team executed Work %d times, want 4", sum.Elements["Work"].Count)
	}
}

func TestOmpCriticalSerializes(t *testing.T) {
	// 4 threads each needing a 10-unit critical section with ample
	// processors: the sections serialize, makespan = 40.
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	par := d.Activity("Par", "body")
	par.Node().SetStereotype(profile.OMPParallel)
	d.Final()
	d.Chain("initial", "Par", "final")
	body := b.Diagram("body")
	body.Initial()
	crit := body.MPI("Crit", profile.OMPCritical)
	crit.Cost("10")
	body.Final()
	body.Chain("initial", "Crit", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 16, Processes: 1, Threads: 4}}
	res := run(t, m, cfg)
	if math.Abs(res.Makespan-40) > 1e-9 {
		t.Errorf("critical sections should serialize: makespan = %v, want 40", res.Makespan)
	}
	// Critical sections in different processes are independent: with 2
	// processes the makespan stays 40, not 80.
	cfg.Params.Processes = 2
	res = run(t, m, cfg)
	if math.Abs(res.Makespan-40) > 1e-9 {
		t.Errorf("per-process critical independence broken: makespan = %v, want 40", res.Makespan)
	}
}

func TestOmpParallelExplicitCount(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "10")
	d := b.Diagram("main")
	d.Initial()
	par := d.Activity("Par", "body")
	par.Node().SetStereotype(profile.OMPParallel)
	par.Tag("count", "3")
	d.Final()
	d.Chain("initial", "Par", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Work").Cost("F()")
	body.Final()
	body.Chain("initial", "Work", "final")
	m, _ := b.Build()
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: 1, Threads: 1}}
	res := run(t, m, cfg)
	sum, _ := trace.Summarize(res.Trace)
	if sum.Elements["Work"].Count != 3 {
		t.Errorf("explicit count ignored: %d executions", sum.Elements["Work"].Count)
	}
}

func TestGlobalInitializers(t *testing.T) {
	b := builder.New("m")
	b.GlobalInit("base", "double", "2")
	b.GlobalInit("derived", "double", "base * processes")
	b.Function("F", nil, "derived")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("F()")
	d.Final()
	d.Chain("initial", "A", "final")
	m, _ := b.Build()
	cfg := Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: 3, Threads: 1}}
	res := run(t, m, cfg)
	if res.Globals["derived"] != 6 {
		t.Errorf("derived = %v, want 6", res.Globals["derived"])
	}
	// 3 parallel processes at cost 6 on 8 cpus.
	testutil.AssertTime(t, "makespan", res.Makespan, 6)
	// Config overrides win over initializers.
	cfg.Globals = map[string]float64{"derived": 1}
	res = run(t, m, cfg)
	// 3 parallel processes at cost 1 on 8 cpus.
	if !testutil.CloseTimes(res.Makespan, 1) {
		t.Errorf("override not applied: makespan %v", res.Makespan)
	}
}

func TestNoTraceMode(t *testing.T) {
	globals := map[string]float64{"N": 10, "M": 3, "c": 0.5}
	full := run(t, samples.Kernel6Detailed(), Config{Globals: globals})
	fast := run(t, samples.Kernel6Detailed(), Config{Globals: globals, NoTrace: true})
	if fast.Makespan != full.Makespan {
		t.Errorf("NoTrace changed the prediction: %v vs %v", fast.Makespan, full.Makespan)
	}
	if len(fast.Trace.Events) != 0 {
		t.Errorf("NoTrace should collect no events, got %d", len(fast.Trace.Events))
	}
	if len(full.Trace.Events) == 0 {
		t.Errorf("traced run should collect events")
	}
}

func TestTraceMetadata(t *testing.T) {
	cfg := Config{Params: machine.SystemParams{Nodes: 2, ProcessorsPerNode: 3, Processes: 4, Threads: 5}}
	res := run(t, samples.Kernel6(), Config{Params: cfg.Params, Globals: map[string]float64{"N": 2, "M": 1, "c": 1}})
	for k, want := range map[string]string{"nodes": "2", "processors": "3", "processes": "4", "threads": "5"} {
		if v, ok := res.Trace.GetMeta(k); !ok || v != want {
			t.Errorf("meta %s = %q, want %q", k, v, want)
		}
	}
	if res.Trace.Model != "kernel6" {
		t.Errorf("trace model = %q", res.Trace.Model)
	}
}

func TestRuntimeErrors(t *testing.T) {
	t.Run("no guard true", func(t *testing.T) {
		b := builder.New("m")
		b.Global("GV", "double")
		d := b.Diagram("main")
		d.Initial()
		d.Decision("dec")
		d.Action("A")
		d.Action("B")
		d.Final()
		d.Flow("initial", "dec")
		d.FlowIf("dec", "A", "GV > 0")
		d.FlowIf("dec", "B", "GV > 100")
		d.Chain("A", "final")
		d.Chain("B", "final")
		m, _ := b.Build()
		if _, err := compile(t, m).Run(Config{}); err == nil ||
			!strings.Contains(err.Error(), "no guard") {
			t.Errorf("expected no-guard error, got %v", err)
		}
	})
	t.Run("undefined variable in cost", func(t *testing.T) {
		b := builder.New("m")
		d := b.Diagram("main")
		d.Initial()
		d.Action("A").Cost("mystery * 2")
		d.Final()
		d.Chain("initial", "A", "final")
		m, _ := b.Build()
		if _, err := compile(t, m).Run(Config{}); err == nil {
			t.Error("undefined variable should fail at run time")
		}
	})
	t.Run("runaway loop guard", func(t *testing.T) {
		b := builder.New("m")
		d := b.Diagram("main")
		d.Initial()
		d.Loop("L", "1e18", "body")
		d.Final()
		d.Chain("initial", "L", "final")
		body := b.Diagram("body")
		body.Initial()
		body.Action("W").Cost("1")
		body.Final()
		body.Chain("initial", "W", "final")
		m, _ := b.Build()
		pr := compile(t, m)
		if _, err := pr.Run(Config{MaxSteps: 1000}); err == nil ||
			!strings.Contains(err.Error(), "exceeded") {
			t.Errorf("runaway loop should trip MaxSteps: %v", err)
		}
	})
	t.Run("recv deadlock", func(t *testing.T) {
		b := builder.New("m")
		d := b.Diagram("main")
		d.Initial()
		d.MPI("R", profile.MPIRecv).Tag("src", "0")
		d.Final()
		d.Chain("initial", "R", "final")
		m, _ := b.Build()
		pr := compile(t, m)
		_, err := pr.Run(Config{Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 2, Threads: 1}})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("recv without send should deadlock: %v", err)
		}
	})
}

func TestCompileErrors(t *testing.T) {
	t.Run("bad guard", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		a, _ := m.AddAction(d, "", "A")
		bn, _ := m.AddAction(d, "", "B")
		d.Connect(a.ID(), bn.ID(), "GV >")
		if _, err := Compile(m, nil); err == nil {
			t.Error("malformed guard should fail")
		}
	})
	t.Run("missing mpi tag", func(t *testing.T) {
		b := builder.New("m")
		d := b.Diagram("main")
		d.Initial()
		d.MPI("S", profile.MPISend).Tag("size", "8") // dest missing
		d.Final()
		d.Chain("initial", "S", "final")
		m, _ := b.Build()
		if _, err := Compile(m, nil); err == nil {
			t.Error("mpi_send without dest should fail to compile")
		}
	})
	t.Run("bad function body", func(t *testing.T) {
		m := uml.NewModel("m")
		m.AddFunction(uml.Function{Name: "F", Body: "("})
		if _, err := Compile(m, nil); err == nil {
			t.Error("malformed function should fail")
		}
	})
	t.Run("unknown loop body", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		m.AddLoop(d, "", "L", "3", "ghost")
		if _, err := Compile(m, nil); err == nil {
			t.Error("unknown loop body should fail")
		}
	})
	t.Run("unknown activity body", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		m.AddActivity(d, "", "SA", "ghost")
		if _, err := Compile(m, nil); err == nil {
			t.Error("unknown activity body should fail")
		}
	})
}

func TestParseAssignments(t *testing.T) {
	as := parseAssignments("GV = 10;\nP = 4;")
	if len(as) != 2 || as[0].Name != "GV" || as[1].Name != "P" {
		t.Errorf("assignments = %+v", as)
	}
	// Opaque statements are skipped, not errors.
	as = parseAssignments("W(i) = W(i) + B(i,k) * W(i-k)")
	if len(as) != 0 {
		t.Errorf("Fortran statement should be opaque: %+v", as)
	}
	as = parseAssignments("// comment\nx = 1; junk !!; y = x + 1")
	if len(as) != 2 {
		t.Errorf("mixed fragment: %+v", as)
	}
	if parseAssignments("") != nil {
		t.Error("empty fragment should yield nil")
	}
	// Comparisons are not assignments.
	if as := parseAssignments("x == 1"); len(as) != 0 {
		t.Errorf("equality treated as assignment: %+v", as)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{
		Params:  machine.SystemParams{Nodes: 2, ProcessorsPerNode: 2, Processes: 6, Threads: 2},
		Globals: map[string]float64{"N": 50, "M": 3, "c": 1e-3},
	}
	pr := compile(t, samples.Kernel6Detailed())
	a, err := pr.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pr.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || len(a.Trace.Events) != len(b.Trace.Events) {
		t.Error("repeated runs diverged")
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("trace event %d differs", i)
		}
	}
}

func TestPipelineModelRuns(t *testing.T) {
	cfg := Config{
		Params:  machine.SystemParams{Nodes: 2, ProcessorsPerNode: 2, Processes: 4, Threads: 1},
		Globals: map[string]float64{"work": 2},
	}
	res := run(t, samples.Pipeline(3), cfg)
	if res.Makespan < 6 {
		t.Errorf("pipeline makespan = %v, want >= 6 (3 stages of 2)", res.Makespan)
	}
	sum, err := trace.Summarize(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Elements["Compute0"].Count != 4 {
		t.Errorf("Compute0 count = %d, want 4", sum.Elements["Compute0"].Count)
	}
}
