package profile

import "prophet/internal/uml"

// Stereotype names of the standard profile. The core pair, <<action+>> and
// <<activity+>>, is taken directly from the paper; the message-passing and
// shared-memory building blocks reproduce the UML extension of the authors'
// earlier work that the paper builds on (references [17,18]): send, recv,
// barrier, broadcast, reduce (MPI concepts) and parallel regions / critical
// sections (OpenMP concepts).
const (
	ActionPlus   = "action+"
	ActivityPlus = "activity+"
	LoopPlus     = "loop+"

	MPISend      = "mpi_send"
	MPIRecv      = "mpi_recv"
	MPISendrecv  = "mpi_sendrecv"
	MPIBarrier   = "mpi_barrier"
	MPIBroadcast = "mpi_bcast"
	MPIReduce    = "mpi_reduce"

	OMPParallel = "omp_parallel"
	OMPCritical = "omp_critical"
)

// Common tag names.
const (
	TagID   = "id"
	TagKind = "type"
	TagTime = "time"

	TagDest  = "dest"  // destination process rank expression
	TagSrc   = "src"   // source process rank expression
	TagSize  = "size"  // message size in bytes (expression)
	TagRoot  = "root"  // root rank of a collective (expression)
	TagCount = "count" // iteration/thread count expression
)

// messageTags lists, per message-passing stereotype, the tags that carry
// its call arguments, in call order.
var messageTags = map[string][]string{
	MPISend:      {TagDest, TagSize},
	MPIRecv:      {TagSrc},
	MPISendrecv:  {TagDest, TagSrc, TagSize},
	MPIBarrier:   {},
	MPIBroadcast: {TagRoot, TagSize},
	MPIReduce:    {TagRoot, TagSize},
}

// MessageTags returns the argument tags of a message-passing stereotype, in
// call order (none for a barrier); ok is false for any other stereotype.
// The returned slice must not be modified.
func MessageTags(stereotype string) (tags []string, ok bool) {
	tags, ok = messageTags[stereotype]
	return tags, ok
}

// standardProfile builds the stereotype definitions of the standard
// performance profile.
func standardProfile() []*Stereotype {
	idTag := TagDef{Name: TagID, Type: TagInteger}
	typeTag := TagDef{Name: TagKind, Type: TagString}
	// time is stochastic: a service time may be a distribution literal
	// (the stochastic model class; see expr.ParseDist).
	timeTag := TagDef{Name: TagTime, Type: TagExpr, Stochastic: true}

	return []*Stereotype{
		{
			// Figure 1(a): stereotype <<action+>> based on the UML
			// metaclass Action, with tags id : Integer, type : String,
			// time : Double. time is declared as an expression here so the
			// measured constant of the paper's example ("time = 10")
			// remains valid while parameterized times are possible too.
			Name: ActionPlus,
			Base: uml.KindAction,
			Tags: []TagDef{idTag, typeTag, timeTag},
			Doc:  "single-entry single-exit code region",
		},
		{
			Name: ActivityPlus,
			Base: uml.KindActivity,
			Tags: []TagDef{idTag, typeTag, timeTag},
			Doc:  "composite region described by its own activity diagram",
		},
		{
			Name: LoopPlus,
			Base: uml.KindLoop,
			// count is stochastic: a repetition count may be drawn from a
			// distribution (rounded down to an integer at run time).
			Tags: []TagDef{idTag, typeTag, {Name: TagCount, Type: TagExpr, Stochastic: true}},
			Doc:  "counted repetition of a body diagram",
		},
		{
			Name: MPISend,
			Base: uml.KindAction,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagDest, Type: TagExpr, Required: true},
				{Name: TagSize, Type: TagExpr, Required: true},
			},
			Doc: "blocking point-to-point message send",
		},
		{
			Name: MPIRecv,
			Base: uml.KindAction,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagSrc, Type: TagExpr, Required: true},
			},
			Doc: "blocking point-to-point message receive",
		},
		{
			// The combined exchange of MPI_Sendrecv: send to dest and
			// receive from src in one element, the natural primitive for
			// halo exchanges (deadlock-free by construction).
			Name: MPISendrecv,
			Base: uml.KindAction,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagDest, Type: TagExpr, Required: true},
				{Name: TagSrc, Type: TagExpr, Required: true},
				{Name: TagSize, Type: TagExpr, Required: true},
			},
			Doc: "combined blocking send to dest and receive from src",
		},
		{
			Name: MPIBarrier,
			Base: uml.KindAction,
			Tags: []TagDef{idTag, typeTag},
			Doc:  "synchronization barrier across all processes",
		},
		{
			Name: MPIBroadcast,
			Base: uml.KindAction,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagRoot, Type: TagExpr, Default: "0"},
				{Name: TagSize, Type: TagExpr, Required: true},
			},
			Doc: "one-to-all broadcast from root",
		},
		{
			Name: MPIReduce,
			Base: uml.KindAction,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagRoot, Type: TagExpr, Default: "0"},
				{Name: TagSize, Type: TagExpr, Required: true},
			},
			Doc: "all-to-one reduction to root",
		},
		{
			Name: OMPParallel,
			Base: uml.KindActivity,
			Tags: []TagDef{
				idTag, typeTag,
				{Name: TagCount, Type: TagExpr, Default: "threads"},
			},
			Doc: "fork/join parallel region executed by a team of threads",
		},
		{
			Name: OMPCritical,
			Base: uml.KindAction,
			Tags: []TagDef{idTag, typeTag, timeTag},
			Doc:  "mutually exclusive code region",
		},
	}
}
