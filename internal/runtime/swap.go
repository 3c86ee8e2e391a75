package runtime

import (
	"fmt"

	"carat/internal/fault"
	"carat/internal/kernel"
	"carat/internal/obs"
)

// Swap support (§2.2): "To make a page unavailable, we patch its affected
// pointers to a physical address that will cause a fault. ... the specific
// non-canonical address can be used to encode different conditions (e.g.,
// swapped, demand-page, 'null pointer', etc)."
//
// SwapOut evicts one allocation: its bytes move to a swap slot and every
// escaped pointer (and in-register pointer) is patched to a non-canonical
// poison address encoding (slot, offset). The next guard on such a pointer
// faults; the fault handler calls SwapIn, which restores the data at a new
// physical location and patches every poisoned pointer forward.

// maxSwapLen bounds a swappable allocation so the offset fits the poison
// encoding's 16 offset bits.
const maxSwapLen = 1 << 16

type swapRecord struct {
	data    []byte
	length  uint64
	escapes map[uint64]uint64 // escape location -> offset within the allocation
	static  bool
	live    int // position in Runtime.swapLive
}

// swapPoison encodes (slot, offset) into the non-canonical range.
func swapPoison(slot, off uint64) uint64 {
	return kernel.Poison(kernel.PoisonSwapped) | slot<<16 | off
}

// DecodeSwapPoison splits a poison address into (slot, offset). The second
// return is false if addr is not a swapped-pointer poison.
func DecodeSwapPoison(addr uint64) (slot, off uint64, ok bool) {
	if !kernel.IsPoison(addr) {
		return 0, 0, false
	}
	// Mask out the non-canonical prefix (bit 47 of the upper half) before
	// reading the kind field.
	if kernel.PoisonKind(addr>>32&0x7FFF) != kernel.PoisonSwapped {
		return 0, 0, false
	}
	return addr >> 16 & 0xFFFF, addr & 0xFFFF, true
}

// SwapOut evicts the allocation based at base into a swap slot, patching
// all of its escapes and in-register pointers to poison addresses. The
// vacated bytes are zeroed (the kernel is free to reuse the frames).
func (r *Runtime) SwapOut(base uint64) (uint64, error) {
	w := r.getWorld()
	regs := w.StopTheWorld()
	defer w.ResumeTheWorld()
	slot, length, err := r.swapOutLocked(base, regs)
	if err != nil {
		return 0, err
	}
	// The address map changed without a move: tell invalidation listeners
	// (the VM's guard caches) which bytes went away. Outside all locks.
	r.notifyInvalidate(base, length)
	return slot, nil
}

func (r *Runtime) swapOutLocked(base uint64, regs []RegSet) (uint64, uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()

	a := r.Table.Covering(base)
	if a == nil || a.Base != base {
		return 0, 0, fmt.Errorf("runtime: swap-out of untracked allocation %#x", base)
	}
	if a.Len > maxSwapLen {
		return 0, 0, fmt.Errorf("runtime: allocation too large to swap (%d bytes)", a.Len)
	}
	slot := uint64(len(r.swapSlots))
	if slot >= 1<<16 {
		return 0, 0, fmt.Errorf("runtime: out of swap slots")
	}
	// An injected I/O error models the write to the swap device failing.
	// Checked before any mutation, so a failed swap-out leaves the
	// allocation untouched and the caller simply skips or retries it.
	if r.injector().Should(fault.SwapOutIO) {
		return 0, 0, &fault.Error{Point: fault.SwapOutIO, Detail: fmt.Sprintf("slot %d write", slot)}
	}

	st := r.mover()
	rec := &swapRecord{data: st.swapBuffer(a.Len), length: a.Len, escapes: make(map[uint64]uint64, a.EscapeCount()), static: a.Static}
	if err := r.mem.ReadAt(base, rec.data); err != nil {
		return 0, 0, err
	}

	// Patch escapes to poison and remember their offsets.
	st.locs = r.Table.EscapeLocsOf(a, st.locs)
	for _, loc := range st.locs {
		val := r.mem.Load64(loc)
		if val >= base && val < base+a.Len {
			off := val - base
			r.mem.Store64(loc, swapPoison(slot, off))
			rec.escapes[loc] = off
		}
	}
	// Patch registers.
	for _, rs := range regs {
		vals := rs.Regs()
		for i, v := range vals {
			if v >= base && v < base+a.Len {
				rs.SetReg(i, swapPoison(slot, v-base))
			}
		}
	}
	r.Table.Remove(base)
	if err := r.mem.Zero(base, a.Len); err != nil {
		return 0, 0, err
	}
	r.swapSlots = append(r.swapSlots, rec)
	rec.live = len(r.swapLive)
	r.swapLive = append(r.swapLive, rec)
	r.Stats.SwapOuts.Inc()
	// Modeled length of this swap, which is one pause: the barrier round
	// trip, one patch per poisoned escape, and the copy to the swap device.
	// Observe-only — swaps charge nothing to the program clock.
	cyc := cycBarrier + uint64(len(rec.escapes))*cycEscapePatch + a.Len*cycPerByteMove
	r.Stats.SwapCycles.Add(cyc)
	r.observePause("swap_out", cyc)
	if tr := r.tracer(); tr != nil {
		tr.Instant("swap.out", "paging",
			obs.A("slot", slot), obs.A("bytes", a.Len), obs.A("escapes", len(rec.escapes)))
	}
	return slot, a.Len, nil
}

// SwappedLen returns the byte length of the allocation in a swap slot.
func (r *Runtime) SwappedLen(slot uint64) (uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if slot >= uint64(len(r.swapSlots)) || r.swapSlots[slot] == nil {
		return 0, fmt.Errorf("runtime: bad swap slot %d", slot)
	}
	return r.swapSlots[slot].length, nil
}

// SwapIn restores swap slot's allocation at newBase (caller-allocated, at
// least SwappedLen bytes) and patches every poisoned pointer — in memory
// and in registers — forward to the new location.
func (r *Runtime) SwapIn(slot, newBase uint64) error {
	w := r.getWorld()
	regs := w.StopTheWorld()
	defer w.ResumeTheWorld()
	length, err := r.swapInLocked(slot, newBase, regs)
	if err != nil {
		return err
	}
	// The destination range now maps live data it did not before: stale
	// cache entries covering it must go. Outside all locks.
	r.notifyInvalidate(newBase, length)
	return nil
}

func (r *Runtime) swapInLocked(slot, newBase uint64, regs []RegSet) (uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()

	if slot >= uint64(len(r.swapSlots)) || r.swapSlots[slot] == nil {
		return 0, fmt.Errorf("runtime: swap-in of bad slot %d", slot)
	}
	// An injected I/O error models the read from the swap device failing.
	// Checked before any mutation, so the slot stays intact and the fault
	// handler can retry the swap-in.
	if r.injector().Should(fault.SwapInIO) {
		return 0, &fault.Error{Point: fault.SwapInIO, Detail: fmt.Sprintf("slot %d read", slot)}
	}
	rec := r.swapSlots[slot]
	if err := r.mem.WriteAt(newBase, rec.data); err != nil {
		return 0, err
	}
	a, err := r.Table.Insert(newBase, rec.length, rec.static)
	if err != nil {
		return 0, fmt.Errorf("runtime: swap-in: %w", err)
	}
	for loc, off := range rec.escapes {
		r.mem.Store64(loc, newBase+off)
		r.Table.relinkEscape(loc, a)
	}
	for _, rs := range regs {
		vals := rs.Regs()
		for i, v := range vals {
			if s, off, ok := DecodeSwapPoison(v); ok && s == slot {
				rs.SetReg(i, newBase+off)
			}
		}
	}
	r.swapSlots[slot] = nil
	last := r.swapLive[len(r.swapLive)-1]
	r.swapLive[rec.live], last.live = last, rec.live
	r.swapLive[len(r.swapLive)-1] = nil
	r.swapLive = r.swapLive[:len(r.swapLive)-1]
	if st := r.mover(); len(st.spareData) < maxSpareBuffers {
		st.spareData = append(st.spareData, rec.data)
	}
	r.Stats.SwapIns.Inc()
	// Mirror of the swap-out pause model: barrier + per-pointer forward
	// patches + the copy back from the swap device.
	cyc := cycBarrier + uint64(len(rec.escapes))*cycEscapePatch + rec.length*cycPerByteMove
	r.Stats.SwapCycles.Add(cyc)
	r.observePause("swap_in", cyc)
	if tr := r.tracer(); tr != nil {
		tr.Instant("swap.in", "paging", obs.A("slot", slot), obs.A("bytes", rec.length))
	}
	return rec.length, nil
}

// maxSpareBuffers bounds the swapped-in records' buffers a runtime keeps for
// later swap-outs; each holds at most maxSwapLen bytes.
const maxSpareBuffers = 8

// swapBuffer returns n bytes for a swap-out's data: a spare buffer that big,
// or a new one.
func (st *moveState) swapBuffer(n uint64) []byte {
	for i, b := range st.spareData {
		if uint64(cap(b)) >= n {
			st.spareData = append(st.spareData[:i], st.spareData[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n)
}

// rebaseSwapLocs keeps swap-record escape locations valid across page and
// allocation moves: a location inside a moved range is itself relocated.
// It visits the records still swapped out, not every slot the process ever
// used. Callers hold opMu.
func (r *Runtime) rebaseSwapLocs(src, dst, length uint64) {
	st := r.mover()
	for _, rec := range r.swapLive {
		moved := st.swapMoved[:0]
		for loc, off := range rec.escapes {
			if loc >= src && loc < src+length {
				moved = append(moved, [2]uint64{loc, off})
			}
		}
		for _, m := range moved {
			delete(rec.escapes, m[0])
			rec.escapes[m[0]-src+dst] = m[1]
		}
		st.swapMoved = moved
	}
}
