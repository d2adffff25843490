package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJournalRequiresStoreDir: -journal is only a migration input, so a
// boot naming it without a store to migrate into is refused up front.
func TestJournalRequiresStoreDir(t *testing.T) {
	err := run(topology{shards: 1, shardID: -1, journalPath: filepath.Join(t.TempDir(), "trips.jsonl")})
	if err == nil || !strings.Contains(err.Error(), "-store-dir") {
		t.Fatalf("run with -journal alone = %v, want an error naming -store-dir", err)
	}
}

func TestJournalPaths(t *testing.T) {
	for _, tc := range []struct {
		path   string
		shards int
		want   []string
	}{
		{"", 1, []string{""}},
		{"", 2, []string{"", ""}},
		{"j.jsonl", 1, []string{"j.jsonl"}},
		{"j.jsonl", 2, []string{"j.jsonl.shard0", "j.jsonl.shard1"}},
	} {
		if got := journalPaths(tc.path, tc.shards); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("journalPaths(%q, %d) = %q, want %q", tc.path, tc.shards, got, tc.want)
		}
	}
}
