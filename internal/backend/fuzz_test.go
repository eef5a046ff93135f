package backend

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecordReplay feeds the durable store's record decoders what a WAL or
// snapshot could hold after corruption: a typed record payload, framed the
// way the WAL frames it so the CRC passes, replayed through scanRecords and
// applyRecord (group commits included) into a fresh backend, which must
// then still answer queries, searches and storage accounting. A malformed
// payload must come back as an error, never a panic.
func FuzzRecordReplay(f *testing.F) {
	// Seeds: every record of a store holding each record type, as a
	// snapshot encodes them, plus one group commit carrying all of them.
	src := New(0)
	seedStore(src)
	s := src.shards[0]
	s.mu.Lock()
	snap := appendShardSnapshot(nil, s)
	s.mu.Unlock()
	var group []byte
	scanRecords(snap, func(typ byte, at int64, payload []byte) error {
		f.Add(typ, append([]byte(nil), payload...))
		body := binary.AppendVarint([]byte{typ}, at)
		body = append(body, payload...)
		group = binary.AppendUvarint(group, uint64(len(body)))
		group = append(group, body...)
		return nil
	})
	f.Add(recGroup, group)

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		b := NewSharded(0, 2)
		scanRecords(appendRecord(nil, typ, 1, payload), b.applyRecord)
		for _, id := range seedQueryIDs {
			b.Query(id)
		}
		b.FindTraces(Filter{Service: "checkout", Candidates: seedQueryIDs})
		b.FindTraces(Filter{SampledOnly: true})
		b.StorageBytes()
	})
}

// FuzzOpenStore writes arbitrary bytes as a data directory's WAL and opens
// it: OpenPersistence must replay them or return an error, never panic. A
// WAL it accepts, its torn tail now truncated, must reopen under another
// shard count to the same answers.
func FuzzOpenStore(f *testing.F) {
	// Seeds: a seeded store's WAL of two group commits, intact, torn inside
	// its second group, and cut back to the bare header.
	dir := f.TempDir()
	src := NewSharded(0, 2)
	if err := src.OpenPersistence(PersistConfig{Dir: dir}); err != nil {
		f.Fatal(err)
	}
	seedStore(src)
	if err := src.FlushPersistence(); err != nil {
		f.Fatal(err)
	}
	src.MarkSampled("tr3", "edge-case")
	if err := src.ClosePersistence(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-7])
	f.Add(wal[:fileHeaderLen])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		a := NewSharded(0, 2)
		if err := a.OpenPersistence(PersistConfig{Dir: dir}); err != nil {
			return
		}
		want := dumpState(a, seedQueryIDs)
		if err := a.ClosePersistence(); err != nil {
			t.Fatalf("close: %v", err)
		}
		b := NewSharded(0, 3)
		if err := b.OpenPersistence(PersistConfig{Dir: dir}); err != nil {
			t.Fatalf("reopening an accepted WAL: %v", err)
		}
		defer b.ClosePersistence()
		if got := dumpState(b, seedQueryIDs); got != want {
			t.Fatalf("reopened at 3 shards:\n%s\nopened at 2 shards:\n%s", got, want)
		}
	})
}
