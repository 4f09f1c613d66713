package expr

import (
	"fmt"
	"math"
)

// Distribution literals: a tagged value (or cost/count expression) whose
// entire source is a single call to one of the distribution constructors
//
//	exp(mean)            exponential with the given mean
//	normal(mu, sigma)    normal, truncated at zero (sim.Stream.Normal)
//	uniform(lo, hi)      uniform on [lo, hi)
//	empirical(v1, ...)   uniform choice over the listed values
//
// denotes a random draw instead of a deterministic value, following the
// stochastic extension of the UML performance profile (see PAPERS.md,
// "Generating a Performance Stochastic Model from UML Specifications").
//
// Only the whole-source form is a distribution: `exp(2)` as a complete
// cost expression is an exponential draw with mean 2, while `1 + exp(2)`
// or `exp(2)` inside a guard keeps the builtin e^x meaning. Arguments are
// ordinary expressions evaluated at sample time (so `exp(c*N)` is legal);
// their constant parts are folded once at parse time.

// DistKind identifies the distribution family of a literal.
type DistKind int

const (
	DistExp DistKind = iota
	DistNormal
	DistUniform
	DistEmpirical
)

// String returns the constructor name of the family.
func (k DistKind) String() string {
	switch k {
	case DistExp:
		return "exp"
	case DistNormal:
		return "normal"
	case DistUniform:
		return "uniform"
	case DistEmpirical:
		return "empirical"
	}
	return fmt.Sprintf("DistKind(%d)", int(k))
}

// distArity gives the required argument count per family; -1 means "one
// or more".
var distArity = map[string]struct {
	kind  DistKind
	arity int
}{
	"exp":       {DistExp, 1},
	"normal":    {DistNormal, 2},
	"uniform":   {DistUniform, 2},
	"empirical": {DistEmpirical, -1},
}

// Sampler is the seeded random-draw interface a distribution samples
// from. *sim.Stream satisfies it structurally, so the interp and lowered
// backends both draw from the engine's existing seed stream.
type Sampler interface {
	Float64() float64
	Uniform(a, b float64) float64
	Exponential(mean float64) float64
	Normal(mean, sd float64) float64
}

// distStackArgs is how many argument values a draw evaluates into a stack
// buffer; only an empirical literal with more arguments allocates.
const distStackArgs = 8

// argBuf returns n value slots, backed by buf when they fit.
func argBuf(buf *[distStackArgs]float64, n int) []float64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float64, n)
}

// Dist is a parsed distribution literal with constant-folded argument
// expressions. It evaluates and draws through its by-name SlotDist (a
// layout that leaves every name dynamic), so Dist and the lowered
// backend's SlotDist share one sampling path.
type Dist struct {
	Kind   DistKind
	args   []Node    // folded argument expressions
	byName *SlotDist // args resolved with every name dynamic
	src    string
}

// ParseDist reports whether src is a distribution literal — the entire
// source is one top-level call to a distribution constructor with the
// right arity — and parses it if so. Each argument is constant-folded
// (Fold) like every other model expression, so `normal(0.005, 2*0.001)`
// samples from constant arguments. A false return means src is an
// ordinary expression (including sources that do not parse at all; those
// surface their error through the normal expression path).
//
// Callers that support model-defined functions should skip the
// distribution reading when the model defines a function of the same
// name (NewLibrary already forbids shadowing the `exp` builtin, so only
// normal/uniform/empirical can be shadowed).
func ParseDist(src string) (*Dist, bool) {
	n, err := Parse(src)
	if err != nil {
		return nil, false
	}
	name, argNodes, ok := DistCall(n)
	if !ok {
		return nil, false
	}
	args := make([]Node, len(argNodes))
	for i, a := range argNodes {
		args[i] = Fold(a)
	}
	d := &Dist{Kind: distArity[name].kind, args: args, src: src}
	d.byName = d.Resolve(byName)
	return d, true
}

// DistCall reports whether a parsed node is a distribution literal — a
// single top-level call to a distribution constructor with the right
// arity — returning the constructor name and the argument nodes. It is
// the AST-level half of ParseDist, for callers (like the checker) that
// want to validate the argument expressions themselves.
func DistCall(n Node) (name string, args []Node, ok bool) {
	call, isCall := n.(*Call)
	if !isCall {
		return "", nil, false
	}
	fam, known := distArity[call.Name]
	if !known {
		return "", nil, false
	}
	if fam.arity >= 0 && len(call.Args) != fam.arity {
		return "", nil, false
	}
	if fam.arity < 0 && len(call.Args) == 0 {
		return "", nil, false
	}
	return call.Name, call.Args, true
}

// String returns the literal's source.
func (d *Dist) String() string { return d.src }

// Sample evaluates the arguments against env and draws one value from s.
// Every call consumes exactly one draw from the sampler (the sampler
// itself may consume more underlying randomness, deterministically); a
// failed argument consumes none.
func (d *Dist) Sample(env Env, s Sampler) (float64, error) {
	return d.byName.sample(nil, env, s)
}

// Moments evaluates the arguments against env and returns the closed-form
// mean and variance of the draw, matching the sampling semantics exactly
// (in particular the truncation at zero of Normal draws).
func (d *Dist) Moments(env Env) (mean, variance float64, err error) {
	var buf [distStackArgs]float64
	vals, err := d.byName.eval(nil, env, &buf)
	if err != nil {
		return 0, 0, err
	}
	mean, variance = distMoments(d.Kind, vals)
	return mean, variance, nil
}

// Resolve resolves the (already folded) argument expressions against a
// slot layout, mirroring Compiled.Resolve, for the lowered backend. When
// every argument folded to a constant, the values are kept so sampling
// evaluates nothing.
func (d *Dist) Resolve(rule func(name string) SlotRule) *SlotDist {
	args := make([]slotted, len(d.args))
	consts := make([]float64, len(d.args))
	for i, a := range d.args {
		args[i] = resolveSlots(a, rule)
		if n, ok := a.(*Num); ok && consts != nil {
			consts[i] = n.Value
		} else {
			consts = nil
		}
	}
	return &SlotDist{Kind: d.Kind, args: args, consts: consts, src: d.src}
}

// SlotDist is a distribution literal whose argument expressions have been
// slot-resolved. Produced by Dist.Resolve.
type SlotDist struct {
	Kind   DistKind
	args   []slotted
	consts []float64 // argument values when all are constant, else nil
	src    string
}

// String returns the literal's source.
func (d *SlotDist) String() string { return d.src }

// Sample evaluates the arguments against the frame and draws one value
// from s. Dist.Sample runs the same code with every name dynamic, so both
// draw bit-identical values over the same argument values and sampler
// state.
func (d *SlotDist) Sample(se *SlotEnv, s Sampler) (float64, error) {
	return d.sample(se, se.Fallback, s)
}

// sample is the one draw path of Dist and SlotDist. Constant arguments
// skip the call to eval: one 64-run Monte Carlo batch of the stochastic
// service model draws ~5*10^5 times.
func (d *SlotDist) sample(se *SlotEnv, env Env, s Sampler) (float64, error) {
	if d.consts != nil {
		return drawDist(d.Kind, d.consts, s), nil
	}
	var buf [distStackArgs]float64
	vals, err := d.eval(se, env, &buf)
	if err != nil {
		return 0, err
	}
	return drawDist(d.Kind, vals, s), nil
}

// eval returns the argument values, evaluated into buf when they fit.
func (d *SlotDist) eval(se *SlotEnv, env Env, buf *[distStackArgs]float64) ([]float64, error) {
	if d.consts != nil {
		return d.consts, nil
	}
	vals := argBuf(buf, len(d.args))
	for i, a := range d.args {
		v, err := a(se, env)
		if err != nil {
			return nil, fmt.Errorf("distribution %s: %w", d.src, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// drawDist performs the single draw. The per-family sampler calls mirror
// sim.Stream's semantics one for one so both backends consume the seed
// stream identically.
func drawDist(kind DistKind, vals []float64, s Sampler) float64 {
	switch kind {
	case DistExp:
		return s.Exponential(vals[0])
	case DistNormal:
		return s.Normal(vals[0], vals[1])
	case DistUniform:
		return s.Uniform(vals[0], vals[1])
	case DistEmpirical:
		i := int(s.Float64() * float64(len(vals)))
		if i >= len(vals) {
			i = len(vals) - 1
		}
		return vals[i]
	}
	return 0
}

// distMoments returns the exact mean and variance of one draw given the
// evaluated arguments.
func distMoments(kind DistKind, vals []float64) (mean, variance float64) {
	switch kind {
	case DistExp:
		m := vals[0]
		return m, m * m
	case DistNormal:
		return censoredNormalMoments(vals[0], vals[1])
	case DistUniform:
		lo, hi := vals[0], vals[1]
		w := hi - lo
		return (lo + hi) / 2, w * w / 12
	case DistEmpirical:
		var sum float64
		for _, v := range vals {
			sum += v
		}
		m := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			d := v - m
			ss += d * d
		}
		return m, ss / float64(len(vals))
	}
	return 0, 0
}

// censoredNormalMoments gives the exact moments of max(0, N(mu, sigma)),
// the value sim.Stream.Normal actually draws. With z = mu/sigma,
// phi the standard normal density and Phi its CDF:
//
//	E[Y]  = mu*Phi(z) + sigma*phi(z)
//	E[Y²] = (mu²+sigma²)*Phi(z) + mu*sigma*phi(z)
func censoredNormalMoments(mu, sigma float64) (mean, variance float64) {
	if sigma <= 0 {
		// Degenerate: the draw is deterministically max(0, mu).
		return math.Max(0, mu), 0
	}
	z := mu / sigma
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	mean = mu*cdf + sigma*pdf
	e2 := (mu*mu+sigma*sigma)*cdf + mu*sigma*pdf
	variance = e2 - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}
