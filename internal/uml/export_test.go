package uml

// Retarget points e at to, which the diagram need not contain: the
// dangling edges that Connect refuses to create.
func Retarget(e *Edge, to string) { e.to = to }
