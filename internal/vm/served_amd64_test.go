//go:build amd64

package vm_test

import (
	"testing"

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
