package guard

import "testing"

// Host-time microbenchmark for region-set maintenance, the part of a move
// and of a region release that edits the kernel's landing zone.
//
//	go test -run '^$' -bench . -benchmem ./internal/guard/

// BenchmarkRegionSetChurn does to an N-region set what one move does to it:
// a destination appears (Add), the source goes (Remove of a whole region),
// then the same in reverse, so the set is back where it started. B/op is the
// point: a Remove that rebuilds the slice shows as the size of the set.
func BenchmarkRegionSetChurn(b *testing.B) {
	for _, n := range []struct {
		name    string
		regions int
	}{{"8", 8}, {"512", 512}} {
		b.Run(n.name+"-regions", func(b *testing.B) {
			s := buildRegions(b, n.regions)
			src := s.Regions()[n.regions/2]
			dst := Region{Base: src.Base + 0x1000, Len: src.Len, Perm: PermRead} // in the gap after src
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Add(dst); err != nil {
					b.Fatal(err)
				}
				s.Remove(src.Base, src.Len)
				if err := s.Add(src); err != nil {
					b.Fatal(err)
				}
				s.Remove(dst.Base, dst.Len)
			}
		})
	}
}
