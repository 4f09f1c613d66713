// Package machine implements the Machine Elements of the Performance
// Estimator (paper, Figure 2): the model of the computing system that the
// program model is integrated with.
//
// "The Performance Estimator generates automatically the machine model
// based on the specified architectural parameters" (paper, Section 2.2) —
// the architectural parameters are the System Parameters (SP): the number
// of computational nodes, the number of processors per node, the number of
// processes, and the number of threads.
//
// The generated machine consists of:
//
//   - one CPU facility per node with processors-per-node servers: compute
//     work contends for processors FCFS, so oversubscribed nodes slow down
//   - one NIC facility per node serializing outgoing messages
//   - an interconnect with separate latency/bandwidth for intra-node and
//     inter-node communication (Hockney-style alpha-beta cost)
//   - one point-to-point mailbox per process and a global barrier
//
// Collectives (broadcast, reduce) are modeled with the standard binomial
// tree cost: after synchronizing, every participant is charged
// ceil(log2 P) * (alpha + size*beta).
package machine

import (
	"fmt"
	"math"
	"strconv"

	"prophet/internal/sim"
)

// SystemParams are the SP of the paper's Figure 2: the parameters of the
// system whose performance is estimated.
type SystemParams struct {
	// Nodes is the number of computational nodes.
	Nodes int
	// ProcessorsPerNode is the number of processors on each node.
	ProcessorsPerNode int
	// Processes is the number of processes of the program model.
	Processes int
	// Threads is the number of threads per process (the default team size
	// of parallel regions).
	Threads int
}

// DefaultParams is a single-process, single-node configuration.
func DefaultParams() SystemParams {
	return SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 1, Threads: 1}
}

// Validate checks the parameters for consistency.
func (sp SystemParams) Validate() error {
	if sp.Nodes < 1 {
		return fmt.Errorf("machine: nodes = %d, want >= 1", sp.Nodes)
	}
	if sp.ProcessorsPerNode < 1 {
		return fmt.Errorf("machine: processors per node = %d, want >= 1", sp.ProcessorsPerNode)
	}
	if sp.Processes < 1 {
		return fmt.Errorf("machine: processes = %d, want >= 1", sp.Processes)
	}
	if sp.Threads < 1 {
		return fmt.Errorf("machine: threads = %d, want >= 1", sp.Threads)
	}
	return nil
}

// Env returns the parameter bindings visible to model expressions (the
// well-known variables of the checker).
func (sp SystemParams) Env() map[string]float64 {
	return map[string]float64{
		"nodes":      float64(sp.Nodes),
		"processors": float64(sp.ProcessorsPerNode),
		"processes":  float64(sp.Processes),
		"threads":    float64(sp.Threads),
	}
}

// NetParams parameterize the interconnect: alpha-beta (latency-bandwidth)
// costs, split by whether the endpoints share a node.
type NetParams struct {
	// LatencyIntra/Inter in simulated time units per message.
	LatencyIntra float64
	LatencyInter float64
	// BandwidthIntra/Inter in bytes per simulated time unit.
	BandwidthIntra float64
	BandwidthInter float64
}

// DefaultNet is a generic commodity-cluster interconnect: 1 us / 10 GB/s
// within a node, 50 us / 1 GB/s between nodes (time unit: seconds).
func DefaultNet() NetParams {
	return NetParams{
		LatencyIntra:   1e-6,
		BandwidthIntra: 10e9,
		LatencyInter:   50e-6,
		BandwidthInter: 1e9,
	}
}

// Message is a point-to-point payload in flight.
type Message struct {
	From int
	To   int
	Size float64
	// SendTime is the simulated time the send was issued.
	SendTime float64
}

// Policy selects the processor-contention discipline of the machine's
// CPU model.
type Policy int

const (
	// PolicyFCFS: non-preemptive first-come-first-served processors
	// (CSIM's default facility discipline). Jobs run to completion; an
	// oversubscribed node completes work in arrival order.
	PolicyFCFS Policy = iota
	// PolicyPS: processor sharing — an oversubscribed node timeslices,
	// so concurrent jobs stretch uniformly. Closer to a real OS
	// scheduler; see the BenchmarkContention ablation.
	PolicyPS
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyPS {
		return "processor-sharing"
	}
	return "fcfs"
}

// Machine is the generated machine model bound to one simulation engine.
type Machine struct {
	eng    *sim.Engine
	sp     SystemParams
	net    NetParams
	policy Policy

	cpus   []*sim.Facility   // per node (FCFS policy)
	psCpus []*sim.PSFacility // per node (PS policy)
	nics   []*sim.Facility   // per node
	mbox   []*sim.Mailbox    // per process
	// pending holds selectively-received messages per process (messages
	// received while waiting for a specific source).
	pending [][]Message
	barrier *sim.Barrier
}

// New builds the machine model from system parameters — the automatic
// machine-model generation step of the paper's Section 2.2 — with the
// default FCFS processor discipline.
func New(eng *sim.Engine, sp SystemParams, net NetParams) (*Machine, error) {
	return NewWithPolicy(eng, sp, net, PolicyFCFS)
}

// NewWithPolicy builds the machine model with an explicit processor
// contention policy.
func NewWithPolicy(eng *sim.Engine, sp SystemParams, net NetParams, policy Policy) (*Machine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{eng: eng, sp: sp, net: net, policy: policy}
	for n := 0; n < sp.Nodes; n++ {
		if policy == PolicyPS {
			m.psCpus = append(m.psCpus, eng.NewPSFacility(CPUFacility(n), sp.ProcessorsPerNode))
		} else {
			m.cpus = append(m.cpus, eng.NewFacility(CPUFacility(n), sp.ProcessorsPerNode))
		}
		m.nics = append(m.nics, eng.NewFacility(NICFacility(n), 1))
	}
	for p := 0; p < sp.Processes; p++ {
		m.mbox = append(m.mbox, eng.NewMailbox(fmt.Sprintf("mbox.p%d", p)))
	}
	m.pending = make([][]Message, sp.Processes)
	m.barrier = eng.NewBarrier("mpi_barrier", sp.Processes)
	return m, nil
}

// CPUFacility names node n's processor facility.
func CPUFacility(n int) string { return "cpu.node" + strconv.Itoa(n) }

// NICFacility names node n's network-interface facility.
func NICFacility(n int) string { return "nic.node" + strconv.Itoa(n) }

// Params returns the system parameters the machine was built from.
func (m *Machine) Params() SystemParams { return m.sp }

// Net returns the interconnect parameters.
func (m *Machine) Net() NetParams { return m.net }

// NodeOf maps a process rank onto its node (round-robin placement).
func (m *Machine) NodeOf(pid int) int { return pid % m.sp.Nodes }

// Policy returns the processor-contention discipline in effect.
func (m *Machine) Policy() Policy { return m.policy }

// CPU returns the FCFS CPU facility of a node (nil under PolicyPS).
func (m *Machine) CPU(node int) *sim.Facility {
	if m.policy == PolicyPS {
		return nil
	}
	return m.cpus[node]
}

// CPUUtilization returns the node's processor utilization regardless of
// policy.
func (m *Machine) CPUUtilization(node int) float64 {
	if m.policy == PolicyPS {
		return m.psCpus[node].Utilization()
	}
	return m.cpus[node].Utilization()
}

// Compute charges dt time units of processor work to pid's node under the
// configured discipline. Oversubscription (more runnable work than
// processors) stretches wall-clock time either in completion order (FCFS)
// or uniformly (PS) — exactly the contention effect the estimator must
// capture.
func (m *Machine) Compute(p *sim.Process, pid int, dt float64) { m.run(p, m.ComputeStep(pid, dt)) }

// transferCost returns (serialization, total delivery delay) for a message
// between two ranks.
func (m *Machine) transferCost(from, to int, size float64) (ser, delay float64) {
	intra := m.NodeOf(from) == m.NodeOf(to)
	var lat, bw float64
	if intra {
		lat, bw = m.net.LatencyIntra, m.net.BandwidthIntra
	} else {
		lat, bw = m.net.LatencyInter, m.net.BandwidthInter
	}
	ser = 0
	if bw > 0 {
		ser = size / bw
	}
	return ser, lat + ser
}

// Send transmits size bytes from rank `from` to rank `to`. The sender
// occupies its node's NIC for the serialization time (back-to-back sends
// from one node queue up), and the message is delivered to the receiver's
// mailbox after the full latency + serialization delay.
func (m *Machine) Send(p *sim.Process, from, to int, size float64) error {
	_, err := m.run(p, m.SendStep(from, to, size))
	return err
}

// Recv blocks until a message from rank `src` arrives at rank `to`.
// src < 0 receives from any source. Messages from other sources that
// arrive in the meantime are buffered and matched by later Recv calls.
func (m *Machine) Recv(p *sim.Process, to, src int) (Message, error) {
	return m.run(p, m.RecvStep(to, src))
}

// Barrier blocks until every process has arrived.
func (m *Machine) Barrier(p *sim.Process) { m.run(p, m.BarrierStep()) }

// collectiveTime is the binomial-tree cost of moving size bytes across the
// whole job: ceil(log2 P) rounds of (latency + size/bandwidth), using
// inter-node parameters when the job spans nodes.
func (m *Machine) collectiveTime(size float64) float64 {
	p := m.sp.Processes
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	var lat, bw float64
	if m.sp.Nodes > 1 {
		lat, bw = m.net.LatencyInter, m.net.BandwidthInter
	} else {
		lat, bw = m.net.LatencyIntra, m.net.BandwidthIntra
	}
	per := lat
	if bw > 0 {
		per += size / bw
	}
	return rounds * per
}

// Broadcast models a one-to-all broadcast of size bytes rooted anywhere:
// participants synchronize, then every rank is charged the binomial tree
// time.
func (m *Machine) Broadcast(p *sim.Process, size float64) { m.run(p, m.CollectiveStep(size)) }

// Reduce models an all-to-one reduction; cost shape equals the broadcast
// tree.
func (m *Machine) Reduce(p *sim.Process, size float64) { m.run(p, m.CollectiveStep(size)) }

// run carries s out on a coroutine process, suspending it at every wait,
// and returns the message a receive took.
func (m *Machine) run(p *sim.Process, s Step) (Message, error) {
	for {
		wait, err := m.Resume(p, &s)
		if !wait {
			return s.Msg, err
		}
		p.Suspend()
	}
}

// stepKind is the operation a Step carries out.
type stepKind uint8

const (
	stepNone       stepKind = iota // nothing (left to do)
	stepUse                        // FCFS service: acquire, hold, release
	stepSend                       // NIC service, then delivery
	stepPS                         // processor-sharing job
	stepRecv                       // receive from a source
	stepBarrier                    // wait for every process
	stepCollective                 // barrier, then the tree time
)

// Step is a machine operation under way, kept across its waits. The step
// forms (ComputeStep, SendStep, ...) make one, and Resume carries it on
// each time the process runs. The blocking methods run the same steps, so
// continuation and coroutine processes share every machine rule.
type Step struct {
	kind  stepKind
	phase uint8
	fac   *sim.Facility
	ps    *sim.PSFacility
	dt    float64 // service or hold time
	delay float64 // send: wire time after the NIC service
	rank  int     // recv: the receiving rank
	src   int     // recv: the source rank, < 0 for any
	err   error   // a rank out of range: Resume reports it
	Msg   Message // what a send carries, or what a receive took
}

// ComputeStep is the step form of Compute.
func (m *Machine) ComputeStep(pid int, dt float64) Step {
	if dt <= 0 {
		return Step{}
	}
	node := m.NodeOf(pid)
	if m.policy == PolicyPS {
		return Step{kind: stepPS, ps: m.psCpus[node], dt: dt}
	}
	return UseStep(m.cpus[node], dt)
}

// UseStep is the step form of f.Use(p, dt), for a facility such as a
// critical section that is not the machine's own.
func UseStep(f *sim.Facility, dt float64) Step {
	return Step{kind: stepUse, fac: f, dt: dt}
}

// SendStep is the step form of Send.
func (m *Machine) SendStep(from, to int, size float64) Step {
	if to < 0 || to >= m.sp.Processes {
		return Step{err: fmt.Errorf("machine: send to rank %d outside 0..%d", to, m.sp.Processes-1)}
	}
	ser, delay := m.transferCost(from, to, size)
	return Step{
		kind: stepSend, fac: m.nics[m.NodeOf(from)], dt: ser, delay: max(delay-ser, 0),
		Msg: Message{From: from, To: to, Size: size},
	}
}

// RecvStep is the step form of Recv; the message is in the step's Msg
// once Resume reports no further wait.
func (m *Machine) RecvStep(to, src int) Step {
	if to < 0 || to >= m.sp.Processes {
		return Step{err: fmt.Errorf("machine: recv on rank %d outside 0..%d", to, m.sp.Processes-1)}
	}
	return Step{kind: stepRecv, rank: to, src: src}
}

// BarrierStep is the step form of Barrier.
func (m *Machine) BarrierStep() Step { return Step{kind: stepBarrier} }

// CollectiveStep is the step form of Broadcast and Reduce, which cost the
// same.
func (m *Machine) CollectiveStep(size float64) Step {
	return Step{kind: stepCollective, dt: m.collectiveTime(size)}
}

// Resume carries s on for p until p must wait, which it reports, or the
// operation is over.
func (m *Machine) Resume(p *sim.Process, s *Step) (wait bool, err error) {
	if s.err != nil {
		return false, s.err
	}
	switch s.kind {
	case stepUse, stepSend:
		switch s.phase {
		case 0:
			s.phase = 1
			if s.fac.BeginAcquire(p) {
				return true, nil
			}
			fallthrough
		case 1:
			s.phase = 2
			p.BeginHold(s.dt)
			return true, nil
		}
		s.fac.EndUse(p)
		if s.kind == stepSend {
			msg, dest := s.Msg, m.mbox[s.Msg.To]
			msg.SendTime = m.eng.Now()
			m.eng.After(s.delay, func() { dest.Send(msg) })
		}
	case stepPS:
		if s.phase == 0 {
			s.phase = 1
			if s.ps.BeginUse(p, s.dt) {
				return true, nil
			}
		}
	case stepRecv:
		if m.recv(p, s) {
			return true, nil
		}
	case stepBarrier, stepCollective:
		if s.phase == 0 {
			s.phase = 1
			if m.sp.Processes > 1 && m.barrier.BeginWait(p) {
				return true, nil
			}
		}
		if s.kind == stepCollective && s.phase == 1 {
			s.phase = 2
			p.BeginHold(s.dt)
			return true, nil
		}
	}
	s.kind = stepNone
	return false, nil
}

// recv takes the first message from the source s wants, stashed ones
// first, and stashes those from other sources for later receives. i is
// the first stashed message not yet matched against s.
func (m *Machine) recv(p *sim.Process, s *Step) (wait bool) {
	stash, i := &m.pending[s.rank], 0
	if s.phase == 1 { // a message arrived while p waited
		i = len(*stash)
		*stash = append(*stash, p.TakeMessage().(Message))
	}
	s.phase = 1
	for {
		for ; i < len(*stash); i++ {
			if msg := (*stash)[i]; s.src < 0 || msg.From == s.src {
				*stash = append((*stash)[:i], (*stash)[i+1:]...)
				s.Msg = msg
				return false
			}
		}
		raw, wait := m.mbox[s.rank].BeginReceive(p)
		if wait {
			return true
		}
		*stash = append(*stash, raw.(Message))
	}
}

// CollectiveTime exposes the analytic collective cost for tests and
// benchmark reporting.
func (m *Machine) CollectiveTime(size float64) float64 { return m.collectiveTime(size) }
