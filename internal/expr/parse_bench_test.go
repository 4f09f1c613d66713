package expr

import "testing"

// BenchmarkParse parses a short cost expression and a ~200-byte one
// that exercises every precedence level, calls and a conditional.
func BenchmarkParse(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"short", "FA1(P) * 2 + c"},
		{"long", "N > 0 && (M >= 2 || !flag) ? pow(N, 2) * c / (M + 1) - sqrt(N % 7) + max(a, b, 3.5e-3) : " +
			"log(N + M) * 1e-9 + (x - y) * (x + y) / 2 + (z != 0 ? 1 / z : 0) + f(g(h(N)), -k, !done) * 0.25"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
