package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceEdit is the per-instruction editing loop Block.Edit replaced in
// the injecting and removing passes, kept as its oracle over a plain
// slice: walk a snapshot and apply each decision where it lands, every one a
// search of the slice plus a shift of its tail. It returns what the block
// should hold.
func referenceEdit(instrs []*Instr, visit func(*Instr) (before, after *Instr, keep bool)) []*Instr {
	out := slices.Clone(instrs)
	for _, in := range instrs {
		before, after, keep := visit(in)
		if before != nil {
			out = slices.Insert(out, slices.Index(out, in), before)
		}
		if after != nil {
			out = slices.Insert(out, slices.Index(out, in)+1, after)
		}
		if !keep {
			i := slices.Index(out, in)
			out = slices.Delete(out, i, i+1)
		}
	}
	return out
}

// decision is one instruction's fate in a generated edit.
type decision struct{ before, after, drop bool }

// editBlock builds a block of len(ds) instructions %i0, %i1, … and edits it
// by ds through edit, naming what goes before and after %iK %bK and %aK. It
// returns the block, its instructions before the edit and the insertions in
// the order visit made them.
func editBlock(ds []decision, edit func(*Block, func(*Instr) (before, after *Instr, keep bool))) (b *Block, orig, made []*Instr) {
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
			made = append(made, before)
		}
		if ds[i].after {
			after = &Instr{Op: OpAdd, Name: fmt.Sprintf("a%d", i)}
			made = append(made, after)
		}
		return before, after, !ds[i].drop
	})
	return b, orig, made
}

// names renders instrs as their names, for comparison with the oracle's.
func names(instrs []*Instr) []string {
	var ns []string
	for _, in := range instrs {
		ns = append(ns, in.Name)
	}
	return ns
}

// TestEditMatchesPerInstructionLoop drives Block.Edit and the reference with
// the same seeded keep / drop / insert-before / insert-after decisions over
// random blocks: the same instruction sequence must come out, every survivor
// and every insertion owned by the block and numbered in the order it
// arrived, every dropped instruction owned by none. Then a random batch is
// placed at a random index with one Block.Insert, which must match placing
// it one instruction at a time.
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
		want, _, _ := editBlock(ds, func(b *Block, visit func(*Instr) (before, after *Instr, keep bool)) {
			b.Instrs = referenceEdit(b.Instrs, visit)
		})
		got, orig, made := editBlock(ds, (*Block).Edit)
		if g, w := names(got.Instrs), names(want.Instrs); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Edit left %v, the reference %v", seed, g, w)
		}
		for _, in := range got.Instrs {
			if in.Block != got {
				t.Fatalf("seed %d: %%%s is in the block but its Block field says %v", seed, in.Name, in.Block)
			}
		}
		// An insertion is numbered when it enters the block, in the order made.
		for k, in := range made {
			if in.ID != int32(len(orig)+1+k) {
				t.Fatalf("seed %d: %%%s has ID %d, want %d", seed, in.Name, in.ID, len(orig)+1+k)
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

		// Batch placement: what a pass moving k instructions into a block does.
		at := r.Intn(len(got.Instrs) + 1)
		batch := make([]*Instr, r.Intn(8))
		wantNames := names(got.Instrs)
		for k := range batch {
			batch[k] = &Instr{Op: OpAdd, Name: fmt.Sprintf("p%d", k)}
			wantNames = slices.Insert(wantNames, at+k, batch[k].Name)
		}
		next := got.Fn.NumIDs()
		got.Insert(at, batch...)
		if g := names(got.Instrs); !slices.Equal(g, wantNames) {
			t.Fatalf("seed %d: Insert(%d) of %d left %v, placing one at a time %v", seed, at, len(batch), g, wantNames)
		}
		for k, in := range batch {
			if in.Block != got || in.ID != int32(next+k) {
				t.Fatalf("seed %d: placed %%%s has block %v and ID %d, want the block and ID %d", seed, in.Name, in.Block, in.ID, next+k)
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
