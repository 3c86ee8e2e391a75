package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carat/internal/server"
)

// TestConfigRejectsUnknownKeys: a config key server.Config does not have —
// an option that was removed, or a misspelling — fails run() with an error
// naming the key, before anything starts.
func TestConfigRejectsUnknownKeys(t *testing.T) {
	for _, key := range []string{"pause_budget_cycles", "max_inflght"} {
		path := filepath.Join(t.TempDir(), "caratd.json")
		if err := os.WriteFile(path, []byte(`{"addr": "localhost:0", "`+key+`": 1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-config", path})
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("config naming %q: run() = %v, want an error naming the key", key, err)
		}
	}
}

// TestSampleConfigDecodes: the shipped sample config names only keys
// server.Config has.
func TestSampleConfigDecodes(t *testing.T) {
	cfg, err := loadConfig("../../configs/caratd.sample.json", server.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "localhost:9321" || cfg.MaxInflight != 32 || len(cfg.Tenants) != 2 {
		t.Errorf("sample config decoded to addr %q, max_inflight %d, %d tenants", cfg.Addr, cfg.MaxInflight, len(cfg.Tenants))
	}
}
