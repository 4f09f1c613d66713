package main

import (
	"math"
	"math/rand"

	"prophet/internal/conformance"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
)

// The input pools are fixed and committed together with their reference
// outputs (refs.json); the benchmark seed only chooses which pool entries
// a run uses and in what order. That is what lets every operation be
// checked against a reference computed once, offline, by the interp
// backend.

const (
	// transformPool is the number of distinct transform models. A run
	// takes each at most once, so it must exceed the ops one run can
	// complete (about 300 in 25 s on a 2-core host).
	transformPool = 1024
	// transformStrata splits the size range into equal log-width bands;
	// the pool is laid out in blocks holding one model per band, and a
	// run walks whole blocks, so every run sees the same size mix and
	// the seed moves the size distribution only within a band.
	transformStrata   = 8
	transformMinNodes = 1000
	transformMaxNodes = 5000
	// transformEpoch is the number of blocks a run's order draws from
	// before moving on (see transformOrder): 320 models, a little more
	// than one 25-second run completes on a 2-core host.
	transformEpoch = 40
	// transformFill is how many programs the estimator's compiled and
	// lowered caches hold (maxCachedPrograms in internal/estimator). A
	// transform run fills them before it is measured, so every run
	// measures the long-lived Prophet at the size it settles at, not at
	// a size set by how many ops the host's speed let it complete.
	transformFill = 256

	// mcRuns is the Monte Carlo batch size and mcParallel its worker
	// bound, the shape ROADMAP names as a user-facing batch.
	mcRuns     = 64
	mcParallel = 2
	// mcJobs sizes the StochasticService model (about 29 ms per batch).
	mcJobs = 2000
	// mcBases is the number of distinct seed bases; batch b uses seeds
	// b..b+mcRuns-1, so the reference holds mcBases+mcRuns-1 makespans.
	mcBases = 4096
	// mcBand is the CLT band, in standard errors, that a batch mean must
	// fall within around the analytic mean.
	mcBand = 6

	// serveVariants is the number of distinct (seed, globals) requests
	// per served model; serveGlobals of them share each globals value.
	serveVariants = 1024
	serveGlobals  = 8
	// serveRepeat is the share of requests that repeat an earlier
	// request, serveAuto the share of new requests using mode=auto.
	serveRepeat = 0.70
	serveAuto   = 0.10
	// serveWindow bounds how far back a repeat reaches: the most recent
	// serveWindow new requests always sit in the 1024-entry result
	// cache, so a repeat is a hit (or joins an in-flight twin).
	serveWindow = 512
)

// transformSpecs returns the modelgen parameters of every transform pool
// entry. Entry b*transformStrata+s lies in size band s; sizes are
// log-uniform within the band. The layout is fixed (its own seed), not
// derived from the benchmark seed.
func transformSpecs() []modelgen.Params {
	return bandedSpecs(transformPool, 20081, 1)
}

// transformFillSpecs are the models that fill the estimator's program
// caches before a transform run is measured: the pool's size mix,
// outside the pool.
func transformFillSpecs() []modelgen.Params {
	return bandedSpecs(transformFill, 20082, 2_000_001)
}

// bandedSpecs returns n models laid out in blocks of one model per size
// band, the band's size drawn by layoutSeed, with model seeds counting
// up from firstSeed.
func bandedSpecs(n int, layoutSeed, firstSeed int64) []modelgen.Params {
	rng := rand.New(rand.NewSource(layoutSeed))
	out := make([]modelgen.Params, n)
	span := math.Log(float64(transformMaxNodes) / float64(transformMinNodes))
	for i := range out {
		s := i % transformStrata
		u := (float64(s) + rng.Float64()) / transformStrata
		out[i] = modelgen.Params{
			Seed:  firstSeed + int64(i),
			Nodes: int(math.Round(transformMinNodes * math.Exp(u*span))),
		}
	}
	return out
}

// transformHeldOut are the warm-up models of the transform setup: the
// same family, outside the pool.
func transformHeldOut() []modelgen.Params {
	return []modelgen.Params{{Seed: 1_000_001, Nodes: 2000}, {Seed: 1_000_002, Nodes: 2000}}
}

// transformOrder returns the pool indices a run takes, in order. The
// pool is walked in epochs of transformEpoch blocks; the seed orders the
// blocks of an epoch and the bands of each block. A run of this
// benchmark's length completes most of the first epoch, so every seed
// runs nearly the same set of models in a different order: within a
// size band, the models' simulated work still differs by about 3x
// (loop counts multiply), and letting the seed pick which models a run
// sees would move its median by as much as a real regression.
func transformOrder(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	blocks := transformPool / transformStrata
	out := make([]int, 0, transformPool)
	for e := 0; e < blocks; e += transformEpoch {
		for _, b := range rng.Perm(min(transformEpoch, blocks-e)) {
			for _, s := range rng.Perm(transformStrata) {
				out = append(out, (e+b)*transformStrata+s)
			}
		}
	}
	return out
}

// mcModel is the montecarlo workload's model and globals.
func mcModel() (*uml.Model, map[string]float64) {
	return conformance.StochasticService(mcJobs), map[string]float64{"scale": 1}
}

// mcOrder returns the seed bases a run takes, in order. Bases are 1-based.
func mcOrder(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, mcBases)
	for i, p := range rng.Perm(mcBases) {
		out[i] = int64(p + 1)
	}
	return out
}

// mcHeldOutBase is the warm-up batch's seed base, outside the pool.
const mcHeldOutBase = 1_000_000

// servedModel is one model the serve workload uploads.
type servedModel struct {
	model  *uml.Model
	global string    // the global each variant sets
	values []float64 // serveGlobals values of it
}

// serveModels returns the uploaded models: four ~2k-node modelgen models
// (engine-only, fork-bearing) and the single-process StochasticService.
func serveModels() []servedModel {
	var out []servedModel
	cs := make([]float64, serveGlobals)
	for g := range cs {
		cs[g] = 1e-6 * (1 + 0.25*float64(g))
	}
	for k := 0; k < 4; k++ {
		m := modelgen.MustGenerate(modelgen.Params{Seed: int64(101 + k), Nodes: 2000})
		out = append(out, servedModel{model: m, global: "c", values: cs})
	}
	scales := make([]float64, serveGlobals)
	for g := range scales {
		scales[g] = 1 + 0.25*float64(g)
	}
	out = append(out, servedModel{model: conformance.StochasticService(mcJobs), global: "scale", values: scales})
	return out
}

// variant returns the seed and globals of request variant v of a model.
func (sm servedModel) variant(v int) (seed int64, globals map[string]float64) {
	return int64(v + 1), map[string]float64{sm.global: sm.values[v%serveGlobals]}
}

// serveHeldOutSeed is the warm-up requests' seed, outside every variant.
const serveHeldOutSeed = 1_000_000

// entry is one request of the serve schedule.
type entry struct {
	model   int
	variant int
	auto    bool // mode=auto instead of simulate
	first   int  // index of the entry that first issued this request (itself when new)
}

// serveBlock is the schedule's stratum: every serveBlock requests hold
// exactly serveBlock*serveRepeat repeats, and every serveBlock new
// requests exactly serveBlock*serveAuto mode=auto ones. Fixing the mix
// per block keeps the seed from moving a run's hit ratio.
const serveBlock = 10

// serveSchedule returns the request sequence of a run. New requests
// visit the models round-robin in seeded order, each taking its next
// unused variant of a seeded permutation; repeats copy one of the last
// serveWindow new requests. The schedule is a pure function of the seed:
// which requests are repeats does not depend on timing, only whether a
// repeat finds its twin finished or still in flight.
func serveSchedule(seed int64, models int) []entry {
	rng := rand.New(rand.NewSource(seed))
	variants := make([][]int, models)
	for k := range variants {
		variants[k] = rng.Perm(serveVariants)
	}
	nRepeat := int(math.Round(serveBlock * serveRepeat))
	nAuto := int(math.Round(serveBlock * serveAuto))
	var (
		out        []entry
		news       []int // indices of new entries
		modelOrder []int // models left in the current round
		autoSlots  []bool
	)
	newEntry := func() entry {
		if len(modelOrder) == 0 {
			modelOrder = rng.Perm(models)
		}
		if len(autoSlots) == 0 {
			autoSlots = make([]bool, serveBlock)
			for _, p := range rng.Perm(serveBlock)[:nAuto] {
				autoSlots[p] = true
			}
		}
		k := modelOrder[0]
		modelOrder = modelOrder[1:]
		auto := autoSlots[0]
		autoSlots = autoSlots[1:]
		v := variants[k][0]
		variants[k] = variants[k][1:]
		i := len(out)
		news = append(news, i)
		return entry{model: k, variant: v, auto: auto, first: i}
	}
	for len(variants[0]) > serveBlock {
		repeat := make([]bool, serveBlock)
		for _, p := range rng.Perm(serveBlock)[:nRepeat] {
			repeat[p] = true
		}
		for _, r := range repeat {
			if !r || len(news) == 0 {
				out = append(out, newEntry())
				continue
			}
			w := news
			if len(w) > serveWindow {
				w = w[len(w)-serveWindow:]
			}
			out = append(out, out[w[rng.Intn(len(w))]])
		}
	}
	return out
}
