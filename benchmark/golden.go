package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json holds, for each suite kernel at each scale the benchmark runs
// it, what the reference interpreter (no predecode, no xcache, no closure
// tier) returned, printed and counted. The fast tiers are checked against
// it, so they are never their own oracle. Generated programs are not in it:
// their expected results come from the generator's Go twins (gen.go).
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Exit         int64  `json:"exit"`
	OutputDigest string `json:"output_digest"`
	Instrs       uint64 `json:"instrs"`
	Cycles       uint64 `json:"cycles"`
	GuardChecks  uint64 `json:"guard_checks"`
}

// goldenFile maps scale ("small", "test") → kernel → entry.
type goldenFile struct {
	Kernels map[string]map[string]goldenEntry `json:"kernels"`
}

func scaleKey(sc scale) string {
	if sc == scaleFull {
		return "small"
	}
	return "test"
}

func loadGolden(sc scale) (map[string]goldenEntry, error) {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g := gf.Kernels[scaleKey(sc)]
	if len(g) == 0 {
		return nil, fmt.Errorf("golden.json has no %q kernels; regenerate it with -write-golden", scaleKey(sc))
	}
	return g, nil
}

// matches reports whether a run returned and printed what the reference did.
func (g goldenEntry) matches(r runResult) bool {
	return g.Exit == r.Exit && g.OutputDigest == r.OutputDigest
}

// sameModel reports whether the run's model counts equal the reference's.
func (g goldenEntry) sameModel(r runResult) bool {
	return g.Instrs == r.Instrs && g.Cycles == r.Cycles && g.GuardChecks == r.GuardChecks
}

// writeGolden runs every kernel at both scales on the reference interpreter
// and writes the result to path.
func writeGolden(path string) error {
	gf := goldenFile{Kernels: map[string]map[string]goldenEntry{}}
	mc := newMachine(machineBytes)
	for _, sc := range []scale{scaleTest, scaleFull} {
		out := map[string]goldenEntry{}
		for _, k := range suiteKernels() {
			m := k.buildKernel(sc == scaleFull)
			if _, err := runPasses(nil, m); err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			g, err := mc.load(nil, m, guestOpts{reference: true})
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			r, err := g.run("vm.run")
			if err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			if err := g.release(); err != nil {
				return fmt.Errorf("%s: %w", k.Name, err)
			}
			out[k.Name] = goldenEntry{r.Exit, r.OutputDigest, r.Instrs, r.Cycles, r.GuardChecks}
			fmt.Fprintf(os.Stderr, "golden %s/%s: exit %d, %d instrs\n", scaleKey(sc), k.Name, r.Exit, r.Instrs)
		}
		gf.Kernels[scaleKey(sc)] = out
	}
	b, err := json.MarshalIndent(gf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
