package guest

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/pagetable"
)

// This file holds the VMA mutations, munmap and mprotect. Each sweeps its
// range one page at a time in ascending VA order, looking pages up through
// the span-cached gptMapper, and charges one PTEWrite ahead of every PTE
// store it makes: under shadow paging each such store traps (§3.3.2).

// vmaIndex returns the index of the area containing va, or -1.
func (p *Process) vmaIndex(va arch.VA) int {
	i := sort.Search(len(p.vmas), func(j int) bool { return p.vmas[j].End > va })
	if i < len(p.vmas) && p.vmas[i].contains(va) {
		return i
	}
	return -1
}

// removeVMARange updates the area list after [lo, hi) was unmapped from
// p.vmas[i]: whole-area removal, head/tail shrink, or a middle split into
// two areas.
func (p *Process) removeVMARange(i int, lo, hi arch.VA) {
	v := p.vmas[i]
	switch {
	case lo == v.Start && hi == v.End:
		p.vmas = append(p.vmas[:i], p.vmas[i+1:]...)
	case lo == v.Start:
		p.vmas[i].Start = hi
	case hi == v.End:
		p.vmas[i].End = lo
	default:
		p.vmas[i].End = lo
		p.addVMA(VMA{Start: hi, End: v.End, Writable: v.Writable})
	}
}

// Munmap removes [base, base+pages·4K), unmapping its pages (each PTE clear
// is a page-table store and traps under shadow paging), freeing the frames,
// and reporting them down the stack (free page reporting), so the next use
// of the range refaults the whole path. The range must lie entirely inside
// one area: whole-area unmap (Mmap's inverse) plus partial unmaps that
// shrink or split the area.
func (p *Process) Munmap(base arch.VA, pages int) error {
	idx := p.vmaIndex(base)
	if idx < 0 {
		return fmt.Errorf("guest: munmap of unknown area %#x", base)
	}
	v := p.vmas[idx]
	end := base + arch.VA(pages)*arch.PageSize
	if pages <= 0 || end > v.End {
		return fmt.Errorf("guest: munmap range %#x (%d pages) escapes area [%#x, %#x)", base, pages, v.Start, v.End)
	}
	p.Syscall(mmapBody)
	if err := p.munmapPerPage(base, end); err != nil {
		return err
	}
	p.K.plat.FlushRange(p, pages)
	p.removeVMARange(idx, base, end)
	return nil
}

// munmapPerPage is the unmap sweep: one cursor lookup, one cursor PTE clear
// (firing the platform's PTE-store hook), one refcount read, and one frame
// free per present page.
func (p *Process) munmapPerPage(lo, hi arch.VA) error {
	prm := p.K.plat.Params()
	for va := lo; va < hi; va += arch.PageSize {
		e, ok := p.gptMapper.Lookup(va)
		if !ok {
			continue
		}
		p.CPU.AdvanceLazy(prm.PTEWrite)
		p.gptMapper.Unmap(va) // fires the platform's PTE-store hook
		// Release the backing before the frame reaches the free list: a
		// frame another vCPU allocates must never arrive still backed.
		if p.K.GPA.RefCount(e.PFN) == 1 {
			p.K.plat.ReleasePage(p, va, e.PFN)
		}
		if _, err := p.K.GPA.Free(e.PFN); err != nil {
			return err
		}
	}
	return nil
}

// Mprotect changes the protection of a previously mapped area (whole-area
// granularity). Dropping write permission rewrites every present PTE (each
// store traps under shadow paging) and issues one TLB range invalidation —
// the mechanism behind lat_mprotect-style costs.
func (p *Process) Mprotect(base arch.VA, pages int, writable bool) error {
	idx := -1
	for i, v := range p.vmas {
		if v.Start == base && v.Pages() == pages {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("guest: mprotect of unknown area %#x (%d pages)", base, pages)
	}
	p.Syscall(mmapBody)
	p.vmas[idx].Writable = writable
	if changed := p.mprotectPerPage(base, pages, writable, p.vmas[idx].perm()); changed > 0 {
		p.K.plat.FlushRange(p, changed)
	}
	return nil
}

// mprotectPerPage is the protect sweep: one cursor lookup, the skip
// policy, and one cursor protect store (firing the platform's PTE-store
// hook) per affected page. It returns the number of pages changed.
func (p *Process) mprotectPerPage(base arch.VA, pages int, writable bool, perm pagetable.Flags) int {
	prm := p.K.plat.Params()
	changed := 0
	for va := base; va < base+arch.VA(pages)*arch.PageSize; va += arch.PageSize {
		e, ok := p.gptMapper.Lookup(va)
		if !ok {
			continue
		}
		if e.Flags.Has(pagetable.Writable) == writable {
			continue
		}
		// Re-enabling write on a shared (COW) frame must not bypass
		// the copy; leave those read-only for the fault path.
		if writable && p.K.GPA.RefCount(e.PFN) > 1 {
			continue
		}
		p.CPU.AdvanceLazy(prm.PTEWrite)
		p.gptMapper.Protect(va, perm)
		changed++
	}
	return changed
}
