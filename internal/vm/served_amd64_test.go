//go:build amd64

package vm_test

import (
	"context"
	"testing"

	"circuitql/internal/query"
	"circuitql/internal/vm"
)

// TestVMCatalogWithoutAVX2 is TestVMWithoutAVX2's run of the catalog's
// compiled plans: the path a CPU without AVX2 takes at a stride above
// one, executed on a runner that has AVX2.
func TestVMCatalogWithoutAVX2(t *testing.T) {
	if !vm.WithoutAVX2(func() { checkCatalog(t) }) {
		t.Skip("the whole suite already runs without AVX2 on this CPU")
	}
}

// TestVMCatalogWithoutAVX512 is TestVMWithoutAVX512's run of the
// catalog's compiled plans: the path a CPU without AVX-512 takes at a
// batch of one, executed on a runner that has AVX-512.
func TestVMCatalogWithoutAVX512(t *testing.T) {
	if !vm.WithoutAVX512(func() { checkCatalog(t) }) {
		t.Skip("no AVX-512F+VL on this CPU: the whole suite already runs batches of one through the scalar kernel")
	}
}

// BenchmarkVMBatchOfOne times EvalBatch at a batch of one on two served
// shapes — triangle·16, hot-eval's plan, and pair·4, the smallest of
// hot-small's — with the stride-1 kernels switched off (scalar) and on
// (vector), and reports ns per instruction. The benchmark module's
// vm.eval_us times the same call inside a served request.
func BenchmarkVMBatchOfOne(b *testing.B) {
	for _, shape := range []struct {
		name, src string
		tuples    int
	}{
		{"triangle·16", "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)", 16},
		{"pair·4", "Q(A,B) :- R(A,B), S(A,B)", 4},
	} {
		c, packed := servedCircuit(b, query.MustParse(shape.src), 1, shape.tuples)
		p, err := vm.Compile(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		inputs := [][]Word{packed}
		eval := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.EvalBatch(context.Background(), inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Instructions()), "ns/instruction")
		}
		b.Run(shape.name+"/scalar", func(b *testing.B) {
			if !vm.WithoutAVX512(func() { eval(b) }) {
				eval(b)
			}
		})
		b.Run(shape.name+"/vector", func(b *testing.B) {
			if !vm.HasAVX512() {
				b.Skip("no AVX-512F+VL on this CPU")
			}
			eval(b)
		})
	}
}
