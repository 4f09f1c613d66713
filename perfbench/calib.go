package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is a share of a larger machine, and
// how fast it runs the same code changes over minutes by as much as
// twice, with no steal time to show for it: the program's CPU time per
// op moves as much as its wall time. So every run also times a fixed
// reference kernel, which is not prophet's code and no change to the
// program can move, interleaved with the measured ops, and reports its
// time metrics at the speed of a reference host: a measured time is
// multiplied by calibNominalMs over the kernel's median time in the run
// (a rate is divided by it). Both the raw values and the factor are
// printed with every run.

// calibNominalMs is the reference host's kernel time: one calibration
// sample on the 2-vCPU Xeon VM the benchmark was tuned on. A host whose
// kernel takes calibNominalMs reports its times as measured.
const calibNominalMs = 3.0

// calibNominalCPUMs is the reference host's CPU time per kernel run.
const calibNominalCPUMs = 3.0

// calibEvery is how often a run samples the kernel between ops.
const calibEvery = 200 * time.Millisecond

// calibWorkers is how many kernels one sample runs at once: one per core
// of the 2-core hosts the benchmark targets, so a sample also sees the
// contention between the two cores that the workloads' two busy
// goroutines meet.
const calibWorkers = 2

// refKernel is one worker's share of a calibration sample: a mix of the
// kinds of work prophet does per op (parsing a document into a tree of
// small objects, an interpreter-style dispatch loop, random draws, map
// and sort traffic, small allocations), on inputs fixed at construction.
// Over a probe on a drifting host, each of these parts tracked the
// montecarlo workload's batch time more closely than sha256 hashing or
// pointer chasing did, and parsing moved the most like it.
type refKernel struct {
	rng  *rand.Rand
	keys []uint64 // map keys and the sort input
	work []uint64 // the sort's scratch copy
	m    map[uint64]uint64
	code []byte // the dispatch loop's program
	sink uint64
}

const (
	kernelKeys   = 4096
	kernelCode   = 16 << 10
	kernelAllocs = 4096
	kernelDraws  = 20000
	kernelFuncs  = 60 // functions in the parsed source
)

// kernelSource is the Go source file the kernel parses.
var kernelSource = func() string {
	var b strings.Builder
	b.WriteString("package p\n")
	for i := 0; i < kernelFuncs; i++ {
		fmt.Fprintf(&b, "func f%d(x int) (int, error) {\n\tm := map[string]int{\"a\": x}\n"+
			"\tfor i := 0; i < x; i++ {\n\t\tif i%%3 == 0 {\n\t\t\tm[\"a\"] += i * %d\n\t\t} else {\n\t\t\tx -= len(m)\n\t\t}\n\t}\n"+
			"\treturn m[\"a\"] + x, nil\n}\n", i, i)
	}
	return b.String()
}()

func newRefKernel(seed int64) *refKernel {
	rng := rand.New(rand.NewSource(seed))
	k := &refKernel{
		rng:  rand.New(rand.NewSource(seed + 1)),
		keys: make([]uint64, kernelKeys),
		work: make([]uint64, kernelKeys),
		m:    make(map[uint64]uint64, kernelKeys),
		code: make([]byte, kernelCode),
	}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	for i := range k.code {
		k.code[i] = byte(rng.Intn(6))
	}
	return k
}

// node is the kernel's small heap object.
type node struct {
	left, right *node
	val         float64
}

// run does one worker's share of a sample. It allocates about 1 MiB,
// which adds little to the garbage collector's work next to any
// workload's.
func (k *refKernel) run() {
	var acc uint64
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", kernelSource, 0)
	if err != nil {
		panic(err) // a fixed, valid source
	}
	acc += uint64(len(file.Decls))
	copy(k.work, k.keys)
	slices.Sort(k.work)
	acc += k.work[kernelKeys/2]
	clear(k.m)
	for i, key := range k.keys {
		k.m[key] = uint64(i)
	}
	for _, key := range k.work {
		acc += k.m[key]
	}
	var root *node
	for i := 0; i < kernelAllocs; i++ {
		n := &node{left: root, val: float64(i)}
		if i%3 == 0 {
			n.right = root
		}
		root = n
	}
	for n := root; n != nil; n = n.left {
		acc += uint64(n.val)
	}
	var f float64
	for i := 0; i < kernelDraws; i++ {
		switch i % 3 {
		case 0:
			f += k.rng.ExpFloat64()
		case 1:
			f += k.rng.NormFloat64()
		default:
			f += k.rng.Float64()
		}
	}
	acc += uint64(f)
	var r0, r1 uint64 = 1, 2
	for _, op := range k.code {
		switch op {
		case 0:
			r0 += r1
		case 1:
			r1 ^= r0 >> 3
		case 2:
			r0 *= 3
		case 3:
			if r0&1 == 0 {
				r1++
			}
		case 4:
			r0, r1 = r1, r0
		default:
			r1 += uint64(op)
		}
	}
	k.sink += acc + r0 + r1
}

// calibrator samples the kernel and keeps every sample's wall and CPU
// time. A host can be slower in both ways: a hypervisor that runs
// other guests on this one's cores stretches wall time only, while a
// neighbour sharing a core's caches and execution units stretches CPU
// time as well. So wall-clock metrics are scaled by the kernel's wall
// time and CPU-time metrics by its CPU time.
type calibrator struct {
	kernels []*refKernel
	last    time.Time
	samples []float64     // ms, the workers' mean wall time per sample
	cpuMs   []float64     // ms, process CPU time per worker per sample
	spent   time.Duration // wall time spent sampling, to keep out of a window
	cpu     float64       // process CPU seconds spent sampling
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < calibWorkers; i++ {
		c.kernels = append(c.kernels, newRefKernel(int64(7919*(i+1))))
	}
	// The first run touches the kernels' memory; it is not a sample.
	c.runAll()
	return c
}

// sample times one run of every worker's kernel, all at once.
func (c *calibrator) sample() {
	t0, c0 := time.Now(), cpuSeconds()
	c.samples = append(c.samples, c.runAll())
	c.last = time.Now()
	cpu := cpuSeconds() - c0
	c.cpuMs = append(c.cpuMs, cpu*1e3/calibWorkers)
	c.spent += c.last.Sub(t0)
	c.cpu += cpu
}

// due reports whether calibEvery has passed since the last sample.
func (c *calibrator) due() bool { return time.Since(c.last) >= calibEvery }

// tick samples when one is due. The workloads call it between ops, with
// no op in flight.
func (c *calibrator) tick() {
	if c.due() {
		c.sample()
	}
}

func (c *calibrator) runAll() float64 {
	times := make([]float64, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			k.run()
			times[i] = ms(time.Since(t0))
		}()
	}
	wg.Wait()
	return mean(times)
}

// factor is how much slower than the reference host this run's host ran
// the kernel in wall time: the median sample over calibNominalMs.
func (c *calibrator) factor() float64 {
	return median(c.samples) / calibNominalMs
}

// cpuFactor is factor for CPU time: the median sample's CPU time over
// calibNominalCPUMs.
func (c *calibrator) cpuFactor() float64 {
	return median(c.cpuMs) / calibNominalCPUMs
}
