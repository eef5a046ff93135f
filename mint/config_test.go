package mint_test

// Config validation: nonsensical knob values fail loudly from Open with an
// error naming the field, instead of being clamped silently or panicking
// somewhere deep in the backend.

import (
	"strings"
	"testing"
	"time"

	"repro/mint"
)

func TestOpenRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name  string
		cfg   mint.Config
		field string
	}{
		{"negative shards", mint.Config{Shards: -1}, "Shards"},
		{"negative ingest workers", mint.Config{IngestWorkers: -4}, "IngestWorkers"},
		{"query workers below -1", mint.Config{QueryWorkers: -2}, "QueryWorkers"},
		{"negative snapshot threshold", mint.Config{DataDir: "x", SnapshotEveryBytes: -1}, "SnapshotEveryBytes"},
		{"negative retention", mint.Config{DataDir: "x", RetentionTTL: -time.Hour}, "RetentionTTL"},
		{"retention without data dir", mint.Config{RetentionTTL: time.Hour}, "RetentionTTL"},
		{"snapshot threshold without data dir", mint.Config{SnapshotEveryBytes: 1 << 20}, "SnapshotEveryBytes"},
		{"alpha outside (0, 1)", mint.Config{Alpha: -1}, "Alpha"},
		{"bloom fpp of 1 or more", mint.Config{BloomFPP: 1.5}, "BloomFPP"},
		{"bloom buffer above the filter bound", mint.Config{BloomBufferBytes: 1 << 30}, "BloomBufferBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mint.Open([]string{"n1"}, tc.cfg)
			if err == nil {
				t.Fatalf("Open(%+v) succeeded, want validation error", tc.cfg)
			}
			if !strings.Contains(err.Error(), "invalid config") || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %s", err, tc.field)
			}
		})
	}
}

func TestOpenAcceptsDocumentedSentinels(t *testing.T) {
	// Zero values and the documented -1 QueryWorkers (serial) sentinel stay
	// valid; Shards 0 means the single-shard default, and a non-positive
	// BloomFPP or BloomBufferBytes takes the Bloom default.
	cases := []mint.Config{
		{},
		{Shards: 0, IngestWorkers: 0, QueryWorkers: 0},
		{QueryWorkers: -1, QueryCacheSize: -1},
		{Shards: 8, IngestWorkers: 2},
		{Alpha: 0.9, BloomFPP: -1, BloomBufferBytes: -1},
	}
	for _, cfg := range cases {
		c, err := mint.Open([]string{"n1"}, cfg)
		if err != nil {
			t.Fatalf("Open(%+v): %v", cfg, err)
		}
		c.Close()
	}
}

func TestNewClusterPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewCluster with invalid config did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invalid config") {
			t.Fatalf("panic %v does not carry the validation error", r)
		}
	}()
	mint.NewCluster([]string{"n1"}, mint.Config{Shards: -3})
}
