package exaresil_test

import (
	"testing"

	"exaresil/internal/bench"
)

// Benchmark runs every entry of the repository's benchmark table, the one
// cmd/exabench records and gates on, as a sub-benchmark:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench /fig4 .
func Benchmark(b *testing.B) {
	for _, e := range bench.Table() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			e.Fn(b)
		})
	}
}
