package runtime

import (
	"encoding/binary"
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
// A swap is a move. swapPoison(slot, off) is swapPoison(slot, 0) + off, so
// SwapOut moves one allocation to its slot's poison base and SwapIn moves it
// from there to a caller's destination, both on the move driver (move.go):
// every escape and in-register pointer is patched by the shared phases, and
// the table keeps the swapped-out allocation, rebased to its poison base,
// with its escape set and the escape locations that lie inside it. The next
// guard on a poisoned pointer faults; the fault handler calls SwapIn. A slot
// is its buffer: the allocation's bytes while it is out.

// maxSwapLen bounds a swappable allocation so the offset fits the poison
// encoding's 16 offset bits; slot bases are that far apart, so two
// swapped-out allocations never overlap in the table.
const maxSwapLen = 1 << 16

// maxSwapSlots is how many slots the poison encoding's 16 slot bits name. A
// swap-out takes a fresh slot while there is one, then the slot the latest
// swap-in freed; with neither, phaseSwapIO refuses it.
const maxSwapSlots = 1 << 16

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

// SwapOut evicts the allocation based at base into a new swap slot, patching
// all of its escapes and in-register pointers to poison addresses. The
// vacated bytes are zeroed (the kernel is free to reuse the frames), and the
// invalidation listeners (the VM's guard caches) hear which bytes went away.
func (r *Runtime) SwapOut(base uint64) (uint64, error) {
	_, res, err := r.move(kindSwapOut, kernel.MoveRequest{Src: base}, 0)
	if err != nil {
		return 0, err
	}
	slot, _, _ := DecodeSwapPoison(res.Dst)
	return slot, nil
}

// SwappedLen returns the byte length of the allocation in a swap slot: the
// length of the table's allocation at the slot's poison base.
func (r *Runtime) SwappedLen(slot uint64) (uint64, error) {
	if slot < maxSwapSlots {
		if a := r.Table.Covering(swapPoison(slot, 0)); a != nil && a.Base == swapPoison(slot, 0) {
			return a.Len, nil
		}
	}
	return 0, fmt.Errorf("runtime: bad swap slot %d", slot)
}

// SwapIn restores swap slot's allocation at newBase (caller-allocated, at
// least SwappedLen bytes, overlapping no tracked allocation) and patches
// every poisoned pointer — in memory and in registers — forward to the new
// location. The invalidation listeners hear of the range it fills: stale
// cache entries covering it must go.
func (r *Runtime) SwapIn(slot, newBase uint64) error {
	if slot >= maxSwapSlots {
		return fmt.Errorf("runtime: swap-in of bad slot %d", slot)
	}
	_, _, err := r.move(kindSwapIn, kernel.MoveRequest{Src: swapPoison(slot, 0)}, newBase)
	return err
}

// phaseSwapIO checks the swap device before anything mutates — a swap-out
// needs an allocation that fits a slot and a slot left — then draws the
// device's injected I/O error: the write or the read failing. A failed swap
// leaves the allocation and the slot untouched, so the caller simply skips
// or retries.
func (st *moveState) phaseSwapIO() error {
	point, op := fault.SwapOutIO, "write"
	switch {
	case st.kind == kindSwapIn:
		point, op = fault.SwapInIO, "read"
	case st.length > maxSwapLen:
		return fmt.Errorf("runtime: allocation too large to swap (%d bytes)", st.length)
	case st.slot >= maxSwapSlots:
		return fmt.Errorf("runtime: out of swap slots")
	}
	if st.inj.Should(point) {
		return &fault.Error{Point: point, Detail: fmt.Sprintf("slot %d %s", st.slot, op)}
	}
	return nil
}

// phaseSwapCopy is a swap's copy, its last phase. A swap-out's bytes,
// already patched, become the new slot's buffer and the source is zeroed; a
// swap-in writes the slot's buffer, already patched, to the destination and
// empties the slot, keeping the buffer for a later swap-out.
func (st *moveState) phaseSwapCopy() error {
	r := st.r
	if st.kind == kindSwapOut {
		buf := st.swapBuffer(st.length)
		if err := r.mem.ReadAt(st.src, buf); err != nil {
			return err
		}
		if st.slot < uint64(len(r.swapSlots)) {
			r.swapSlots[st.slot], r.freeSlots = buf, r.freeSlots[:len(r.freeSlots)-1]
		} else {
			r.swapSlots = append(r.swapSlots, buf)
		}
		return r.mem.Zero(st.src, st.length)
	}
	if err := r.mem.WriteAt(st.dst, r.swapSlots[st.slot]); err != nil {
		return err
	}
	if len(st.spareData) < maxSpareBuffers {
		st.spareData = append(st.spareData, r.swapSlots[st.slot])
	}
	r.swapSlots[st.slot] = nil
	r.freeSlots = append(r.freeSlots, st.slot)
	return nil
}

// finishSwap is a completed swap's epilogue. Its modeled length is one
// pause: the barrier round trip, one patch per pointer patched, and the copy
// to or from the swap device. Observe-only — swaps charge nothing to the
// program clock, and count neither as moves nor in MoveStats.
func (r *Runtime) finishSwap(st *moveState) {
	cyc := cycBarrier + uint64(st.bd.EscapesPatched)*cycEscapePatch + st.length*cycPerByteMove
	r.Stats.SwapCycles.Add(cyc)
	count, cause, event := &r.Stats.SwapIns, "swap_in", "swap.in"
	if st.kind == kindSwapOut {
		count, cause, event = &r.Stats.SwapOuts, "swap_out", "swap.out"
	}
	count.Inc()
	r.observePause(cause, cyc)
	if tr := r.tracer(); tr != nil {
		tr.Instant(event, "paging", obs.A("slot", st.slot), obs.A("bytes", st.length), obs.A("escapes", st.bd.EscapesPatched))
	}
}

// loadEscape and storeEscape read and write the word at an escape location.
// A location inside a swapped-out allocation has a poison address, and its
// word lives in that slot's buffer; every other location is in PhysMem.
func (r *Runtime) loadEscape(loc uint64) uint64 {
	if slot, off, ok := DecodeSwapPoison(loc); ok {
		return binary.LittleEndian.Uint64(r.swapSlots[slot][off : off+8])
	}
	return r.mem.Load64(loc)
}

func (r *Runtime) storeEscape(loc, v uint64) {
	if slot, off, ok := DecodeSwapPoison(loc); ok {
		binary.LittleEndian.PutUint64(r.swapSlots[slot][off:off+8], v)
		return
	}
	r.mem.Store64(loc, v)
}

// maxSpareBuffers bounds the swapped-in slots' buffers a runtime keeps for
// later swap-outs; each holds at most maxSwapLen bytes.
const maxSpareBuffers = 8

// swapBuffer returns n bytes for a swap-out's data: a spare buffer that big,
// or a new one. Its capacity spares 7 bytes past the end: a pointer stored
// across the allocation's end is an escape located inside it, and its word
// must stay readable in the slot. Those bytes are not swapped back in.
func (st *moveState) swapBuffer(n uint64) []byte {
	for i, b := range st.spareData {
		if uint64(cap(b)) >= n+7 {
			st.spareData = append(st.spareData[:i], st.spareData[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n, n+7)
}
