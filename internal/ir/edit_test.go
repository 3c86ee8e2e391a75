package ir

import (
	"fmt"
	"math/rand"
	"testing"
)

// The per-instruction editing loop Block.Edit replaced in the injecting and
// removing passes (PR 21), kept as its oracle: walk a snapshot of the block
// and apply each decision through InsertBefore / insertAfter / Remove, every
// one a search of the block plus a shift of its tail.
func referenceEdit(b *Block, visit func(*Instr) (before, after *Instr, keep bool)) {
	snapshot := append([]*Instr(nil), b.Instrs...)
	for _, in := range snapshot {
		before, after, keep := visit(in)
		if before != nil {
			b.InsertBefore(before, in)
		}
		if after != nil {
			insertAfter(b, after, in)
		}
		if !keep {
			b.Remove(in)
		}
	}
}

// insertAfter is internal/passes' old helper, verbatim.
func insertAfter(b *Block, in, pos *Instr) {
	for i, x := range b.Instrs {
		if x == pos {
			if i+1 == len(b.Instrs) {
				b.Append(in)
			} else {
				b.InsertBefore(in, b.Instrs[i+1])
			}
			return
		}
	}
	panic("insertAfter: position not in block")
}

// decision is one instruction's fate in a generated edit.
type decision struct{ before, after, drop bool }

// editBlock builds a block of len(ds) instructions %i0, %i1, … and edits it
// by ds through edit, naming what goes before and after %iK %bK and %aK.
func editBlock(ds []decision, edit func(*Block, func(*Instr) (before, after *Instr, keep bool))) (b *Block, orig []*Instr) {
	b = NewModule("m").AddFunc("f", Void).NewBlock("b")
	index := map[*Instr]int{}
	for i := range ds {
		index[b.Append(&Instr{Op: OpAdd, Name: fmt.Sprintf("i%d", i)})] = i
	}
	orig = append([]*Instr(nil), b.Instrs...)
	edit(b, func(in *Instr) (before, after *Instr, keep bool) {
		i := index[in]
		if ds[i].before {
			before = &Instr{Op: OpAdd, Name: fmt.Sprintf("b%d", i)}
		}
		if ds[i].after {
			after = &Instr{Op: OpAdd, Name: fmt.Sprintf("a%d", i)}
		}
		return before, after, !ds[i].drop
	})
	return b, orig
}

// TestEditMatchesPerInstructionLoop drives Block.Edit and the reference with
// the same seeded keep / drop / insert-before / insert-after decisions over
// random blocks: the same instruction sequence must come out, every survivor
// and every insertion owned by the block, every dropped instruction by none.
func TestEditMatchesPerInstructionLoop(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Bias whole blocks toward one kind of decision, so that runs of drops
		// (the in-place path) and runs of insertions (the spill) both occur,
		// in either order.
		pDrop, pIns := r.Float64(), r.Float64()
		ds := make([]decision, r.Intn(40))
		for i := range ds {
			ds[i] = decision{r.Float64() < pIns, r.Float64() < pIns, r.Float64() < pDrop}
		}
		want, _ := editBlock(ds, referenceEdit)
		got, orig := editBlock(ds, (*Block).Edit)
		if len(got.Instrs) != len(want.Instrs) {
			t.Fatalf("seed %d: Edit left %d instructions, the reference %d", seed, len(got.Instrs), len(want.Instrs))
		}
		for i, in := range got.Instrs {
			if in.Name != want.Instrs[i].Name {
				t.Fatalf("seed %d: instruction %d is %%%s, the reference has %%%s", seed, i, in.Name, want.Instrs[i].Name)
			}
			if in.Block != got {
				t.Fatalf("seed %d: %%%s is in the block but its Block field says %v", seed, in.Name, in.Block)
			}
			// Both number an insertion when it enters the block, in the same order.
			if in.ID == 0 || in.ID != want.Instrs[i].ID {
				t.Fatalf("seed %d: %%%s has ID %d, the reference gave it %d", seed, in.Name, in.ID, want.Instrs[i].ID)
			}
		}
		for i, in := range orig {
			if ds[i].drop && in.Block != nil {
				t.Fatalf("seed %d: dropped %%%s still claims a block", seed, in.Name)
			}
			if in.ID != int32(i+1) {
				t.Fatalf("seed %d: the edit renumbered %%%s from %d to %d", seed, in.Name, i+1, in.ID)
			}
		}
	}
}

// TestEditDropsInPlace: a visit that only drops compacts the block's own
// array and leaves no dropped instruction reachable from its tail.
func TestEditDropsInPlace(t *testing.T) {
	b := NewModule("m").AddFunc("f", Void).NewBlock("b")
	for i := 0; i < 8; i++ {
		b.Append(&Instr{Op: OpAdd, Name: fmt.Sprintf("i%d", i)})
	}
	array := b.Instrs
	b.Edit(func(in *Instr) (_, _ *Instr, keep bool) {
		return nil, nil, in.Name == "i3" || in.Name == "i6"
	})
	if len(b.Instrs) != 2 || b.Instrs[0].Name != "i3" || b.Instrs[1].Name != "i6" {
		t.Fatalf("block holds %v", b.Instrs)
	}
	if &b.Instrs[0] != &array[0] {
		t.Error("a drop-only edit moved the block to a new array")
	}
	for i, in := range array[2:] {
		if in != nil {
			t.Errorf("array slot %d still holds %%%s", i+2, in.Name)
		}
	}
}
