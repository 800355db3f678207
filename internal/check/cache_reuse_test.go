package check

import (
	"runtime"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// TestPageCacheReusesResidencyArrays pins the page cache's memory
// contract under file churn: a dropped file's residency array goes to
// the next file to fill, so creating, reading and dropping 200 files
// of 4096 pages allocates under 1 MiB after the first, where one array
// per file would take 32 KiB each. Reuse must be invisible: a file
// filling on a recycled array sees only the pages it read itself, never
// a previous owner's PFNs, and the whole-machine audit, which counts
// the cache's reference on every resident frame, passes after every
// drop and refill.
func TestPageCacheReusesResidencyArrays(t *testing.T) {
	const filePages = 4096
	m := zone.NewMachine(zone.Config{
		ZonePages: []uint64{8 * addr.MaxOrderPages, 8 * addr.MaxOrderPages},
	})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	// measured sums what the cache operations alone allocate, from the
	// second file on; the checks and audits around them are left out.
	var measured uint64
	counting := false
	cacheOp := func(op func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		if counting {
			measured += after.TotalAlloc - before.TotalAlloc
		}
	}
	read := func(f *osim.File, n uint64) {
		t.Helper()
		var err error
		cacheOp(func() { err = k.Cache.Read(f, 0, n) })
		if err != nil {
			t.Fatal(err)
		}
	}
	audit := func(when string, i int) {
		t.Helper()
		if err := AuditKernels(m, []*osim.Kernel{k}, nil); err != nil {
			t.Fatalf("file %d, after %s: %v", i, when, err)
		}
	}
	// fill reads f's first page, checks that exactly its readahead
	// window is resident, then reads the rest of the file.
	fill := func(f *osim.File, i int) {
		t.Helper()
		read(f, 1)
		resident := 0
		k.Cache.VisitResident(func(pages []addr.PFN) {
			for idx, v := range pages {
				if v != 0 {
					resident++
					if idx >= osim.ReadaheadPages {
						t.Fatalf("file %d: page %d resident after reading page 0 (PFN %d left by a previous owner)", i, idx, v-1)
					}
				}
			}
		})
		if resident != osim.ReadaheadPages || f.CachedPages() != osim.ReadaheadPages {
			t.Fatalf("file %d: %d pages resident (%d counted), want the %d read", i, resident, f.CachedPages(), osim.ReadaheadPages)
		}
		audit("first read", i)
		read(f, f.Bytes)
		if f.CachedPages() != filePages || k.Cache.ResidentPages != filePages {
			t.Fatalf("file %d: %d pages cached, cache holds %d, want %d", i, f.CachedPages(), k.Cache.ResidentPages, filePages)
		}
		audit("fill", i)
	}
	drop := func(f *osim.File, i int) {
		t.Helper()
		cacheOp(func() { k.Cache.DropFile(f) })
		if f.CachedPages() != 0 || k.Cache.ResidentPages != 0 {
			t.Fatalf("file %d: %d pages left after drop", i, k.Cache.ResidentPages)
		}
		audit("drop", i)
	}

	var prev *osim.File
	for i := 0; i < 200; i++ {
		counting = i > 0
		var f *osim.File
		cacheOp(func() { f = k.Cache.CreateFile(filePages * addr.PageSize) })
		fill(f, i)
		drop(f, i)
		// Every tenth file refills the previous, long-dropped file.
		if prev != nil && i%10 == 0 {
			fill(prev, i)
			drop(prev, i)
		}
		prev = f
	}
	if measured >= 1<<20 {
		t.Fatalf("199 warm file lifetimes allocate %d bytes, want under 1 MiB", measured)
	}
	if m.FreePages() != m.TotalPages() {
		t.Fatalf("leak: free %d of %d", m.FreePages(), m.TotalPages())
	}
}
