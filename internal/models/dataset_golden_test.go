package models

import (
	"fmt"
	"runtime"
	"testing"

	"fpgauv/internal/nn"
)

// TestNewDatasetGolden pins NewDataset's inputs bit for bit: one
// Fingerprint per (classes, n), recorded before the set built only the
// prototypes it uses and drew its per-image noise on several
// executors. The sizes fall below, at and above the prototype bank
// (10 and 2 classes, and 1000 classes sharing a bank of 32), and every
// width from serial to four executors must reproduce them.
func TestNewDatasetGolden(t *testing.T) {
	golden := map[[2]int]uint64{
		{10, 1}: 0x70edc12855a267fc, {10, 8}: 0x8882e37b31636bd2, {10, 16}: 0xd956a7e47409f438,
		{10, 32}: 0x89409db3a323ba7e, {10, 40}: 0x50c79d2e411f6be0,
		{2, 1}: 0x82ab913e9a6b8fe7, {2, 8}: 0x7627539560470a14, {2, 16}: 0x8bb45206e4336dd4,
		{2, 32}: 0xf568d61d4af2116f, {2, 40}: 0x1073a7e219c3ff70,
		{1000, 1}: 0x37df01880f5cccec, {1000, 8}: 0x5786c0f923842d02, {1000, 16}: 0xfcd735a97afd32dd,
		{1000, 32}: 0x38b62e0f82f7999f, {1000, 40}: 0x8367c5f93d895931,
	}
	shape := nn.Shape{C: 3, H: 9, W: 7}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for procs := 1; procs <= 4; procs++ {
		runtime.GOMAXPROCS(procs)
		for key, want := range golden {
			classes, n := key[0], key[1]
			d := NewDataset(fmt.Sprintf("golden-%d", classes), classes, shape, n, 0x5e7)
			if got := d.Fingerprint(); got != want {
				t.Errorf("GOMAXPROCS %d, %d classes, n=%d: fingerprint %#016x, want %#016x",
					procs, classes, n, got, want)
			}
		}
	}
}
