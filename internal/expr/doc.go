// Package expr implements the cost-function expression language of the
// performance model.
//
// Cost functions model the execution time of the code block represented by
// a performance modeling element (paper, Section 4 and Figure 7c). They are
// written in a small C-like expression language so that the very same text
// can be (a) emitted verbatim into the generated C++ representation and
// (b) evaluated directly by the model interpreter during simulation.
//
// The language supports:
//
//   - floating point literals (1, 2.5, 1e-3)
//   - variables (model globals/locals, system parameters such as P, and the
//     execute() context parameters uid, pid, tid)
//   - function calls, both builtin math functions (sqrt, log, pow, min, …)
//     and user cost functions defined in the model, which may be composed
//     of other cost functions
//   - arithmetic: + - * / % (remainder as C fmod), unary -
//   - comparisons (== != < <= > >=) and logic (&& || !) with C semantics:
//     comparisons yield 1 or 0, and any non-zero value is true; these are
//     used by branch guards such as "GV > 0"
//   - the conditional operator cond ? a : b
//
// Expressions are parsed once into an AST (Parse) and evaluated through one
// closure builder: Compile resolves every name by name against an Env,
// and Compiled.Resolve places names in the integer slots of a reusable
// frame (SlotEnv) for the lowered simulator's inner loop.
package expr
