package backend

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzRecordReplay feeds the durable store's record decoders what a WAL or
// snapshot could hold after corruption: a typed record payload, framed the
// way the WAL frames it so the CRC passes, replayed through scanRecords and
// applyRecord (group commits included) into a fresh backend, which must
// then still answer queries, searches and storage accounting. A malformed
// payload must come back as an error, never a panic.
func FuzzRecordReplay(f *testing.F) {
	// Seeds: every record of a store holding each record type, as a shard
	// snapshot encodes them, plus one group commit carrying all of them.
	src := New(0)
	seedStore(src)
	s := src.shards[0]
	s.mu.Lock()
	snap := encodeShardSnapshot(s, 1)
	s.mu.Unlock()
	var group []byte
	scanRecords(snap[fileHeaderLen:], func(typ byte, at int64, payload []byte) error {
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

// FuzzParseManifest: any MANIFEST body is accepted or rejected without a
// panic, and what is accepted re-renders to a body that parses to the same
// layout.
func FuzzParseManifest(f *testing.F) {
	f.Add(fmt.Sprintf("mint-data %d\nlayout 3\nshards 8\n", snapshotVersion))
	f.Add("mint-data 1\nlayout 3\n")
	f.Add("mint-data 1\nlayout 3\nshards 8\ngarbage")
	f.Fuzz(func(t *testing.T, body string) {
		v, l, s, err := parseManifest(body)
		if err != nil {
			return
		}
		v2, l2, s2, err := parseManifest(fmt.Sprintf("mint-data %d\nlayout %d\nshards %d\n", v, l, s))
		if err != nil || v2 != v || l2 != l || s2 != s {
			t.Fatalf("accepted %q as (%d, %d, %d), whose rendering parses as (%d, %d, %d, %v)", body, v, l, s, v2, l2, s2, err)
		}
	})
}
