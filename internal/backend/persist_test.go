package backend

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wire"
)

// seedStore populates a backend with at least one record of every persisted
// type: span patterns, topo patterns, immutable and live Bloom segments,
// sampled parameters and a sampled mark.
func seedStore(b *Backend) {
	sp1 := &parser.SpanPattern{
		ID: "sp1", Service: "checkout", Operation: "POST /charge", Kind: trace.KindServer,
		Attrs: []parser.AttrPattern{
			{Key: "~duration", IsNum: true, Pattern: "(27, 81]", NumIndex: 7},
			{Key: "~status", IsNum: true, Pattern: "(150, 250]", NumIndex: 11},
			{Key: "db.statement", Pattern: "select * from <*>"},
		},
	}
	sp2 := &parser.SpanPattern{
		ID: "sp2", Service: "payment", Operation: "Charge", Kind: trace.KindClient,
		Attrs: []parser.AttrPattern{
			{Key: "~duration", IsNum: true, Pattern: "(81, 243]", NumIndex: 8},
			{Key: "~status", IsNum: true, Pattern: "(150, 250]", NumIndex: 11},
		},
	}
	tp1 := &topo.Pattern{
		ID: "tp1", Node: "n1", Entry: "sp1",
		Edges: []topo.Edge{{Parent: "sp1", Children: []string{"sp2"}}},
		Exits: []string{"sp2"},
	}
	b.AcceptPatterns(&wire.PatternReport{
		Node: "n1", SpanPatterns: []*parser.SpanPattern{sp1, sp2}, TopoPatterns: []*topo.Pattern{tp1},
	})

	full := bloom.New(128, 0.01)
	full.Add("tr1")
	full.Add("tr2")
	b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: "tp1", Filter: full, Full: true}, true)

	live := bloom.New(128, 0.01)
	live.Add("tr3")
	b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: "tp1", Filter: live}, false)
	// A second periodic delta, merged into the live segment.
	live2 := bloom.New(128, 0.01)
	live2.Add("tr4")
	b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: "tp1", Filter: live2}, false)

	b.MarkSampled("tr1", "symptom-sampler")
	b.AcceptParams(&wire.ParamsReport{
		Node: "n1", TraceID: "tr1",
		Spans: []*parser.ParsedSpan{
			{
				PatternID: "sp1", TraceID: "tr1", SpanID: "s1", StartUnix: 1111,
				AttrParams: [][]string{{"3.5"}, {"12"}, {"users"}}, RawSize: 97,
			},
			{
				PatternID: "sp2", TraceID: "tr1", SpanID: "s2", ParentID: "s1", StartUnix: 1120,
				AttrParams: [][]string{{"9"}, {"12"}}, RawSize: 60,
			},
		},
	})
}

var seedQueryIDs = []string{"tr1", "tr2", "tr3", "tr4", "tr-none"}

// dumpState renders a backend's externally observable state — query answers
// for a fixed ID set, storage accounting, pattern counts — as a string, so
// parity tests can compare byte-for-byte.
func dumpState(b *Backend, ids []string) string {
	var sb strings.Builder
	for _, id := range ids {
		res := b.Query(id)
		fmt.Fprintf(&sb, "%s -> %s reason=%q\n", id, res.Kind, res.Reason)
		if res.Trace != nil {
			sb.WriteString(res.Trace.Serialize())
		}
	}
	total, pat, bl, par := b.StorageBytes()
	fmt.Fprintf(&sb, "storage %d %d %d %d\n", total, pat, bl, par)
	fmt.Fprintf(&sb, "counts %d %d\n", b.SpanPatternCount(), b.TopoPatternCount())
	return sb.String()
}

func openPersistent(t *testing.T, shards int, cfg PersistConfig) *Backend {
	t.Helper()
	b := NewSharded(0, shards)
	if err := b.OpenPersistence(cfg); err != nil {
		t.Fatalf("OpenPersistence: %v", err)
	}
	return b
}

func TestPersistenceRoundTripAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 4, PersistConfig{Dir: dir})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if !strings.Contains(want, "tr1 -> exact") || !strings.Contains(want, "tr2 -> partial") {
		t.Fatalf("seed state not as expected:\n%s", want)
	}
	if err := a.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen from WAL replay alone (no compaction ever ran past open).
	fromWAL := openPersistent(t, 4, PersistConfig{Dir: dir})
	if got := dumpState(fromWAL, seedQueryIDs); got != want {
		t.Fatalf("WAL replay state mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// Compact everything into snapshots and reopen again.
	if err := fromWAL.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := fromWAL.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fromSnap := openPersistent(t, 4, PersistConfig{Dir: dir})
	defer fromSnap.ClosePersistence()
	if got := dumpState(fromSnap, seedQueryIDs); got != want {
		t.Fatalf("snapshot state mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestPersistenceEmptyStore(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 2, PersistConfig{Dir: dir})
	if err := a.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b := openPersistent(t, 2, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if n := b.SpanPatternCount() + b.TopoPatternCount(); n != 0 {
		t.Fatalf("empty store reopened with %d patterns", n)
	}
	if total, _, _, _ := b.StorageBytes(); total != 0 {
		t.Fatalf("empty store reopened with %d storage bytes", total)
	}
	if res := b.Query("whatever"); res.Kind != Miss {
		t.Fatalf("empty store answered %v", res.Kind)
	}
	// And it is still writable after the empty round-trip.
	seedStore(b)
	if b.SpanPatternCount() != 2 {
		t.Fatalf("reopened store not writable")
	}
}

func TestWALTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Simulate a crash mid-append: a torn frame at the end of the WAL (a
	// length prefix promising more bytes than were written).
	wal := walPath(dir, 1, 0)
	pre, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, pre...), 0xF0, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03)
	if err := os.WriteFile(wal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("truncated-tail recovery mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The torn tail must be gone from disk and the log appendable again.
	b.MarkSampled("tr-after-crash", "tail-adapter")
	if err := b.FlushPersistence(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := b.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer c.ClosePersistence()
	if !c.Sampled("tr-after-crash") {
		t.Fatal("append after tail recovery was lost")
	}
	if got := dumpState(c, seedQueryIDs); got != want {
		t.Fatalf("state drifted after post-recovery append:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALCorruptRecordDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	a.SetTimeSource(func() int64 { return 42 })
	a.MarkSampled("m1", "r1")
	a.MarkSampled("m2", "r2")
	// Seal the first two marks into their own group-commit frame: the
	// corruption unit of the WAL is the group, and a flush is a group
	// boundary (and durability point).
	if err := a.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	a.MarkSampled("m3", "r3")
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Flip the WAL's final byte: the last group's CRC no longer verifies,
	// so replay must keep m1 and m2 and truncate m3's group away.
	wal := walPath(dir, 1, 0)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if !b.Sampled("m1") || !b.Sampled("m2") {
		t.Fatal("intact records before the corruption were lost")
	}
	if b.Sampled("m3") {
		t.Fatal("record with corrupt CRC was replayed")
	}
	if st, err := os.Stat(wal); err != nil || st.Size() >= int64(len(data)) {
		t.Fatalf("corrupt tail not truncated: size %d (was %d), err %v", st.Size(), len(data), err)
	}
}

func TestWALGarbageHeaderRecoversEmpty(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	a.MarkSampled("m1", "r1")
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(walPath(dir, 1, 0), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if b.Sampled("m1") {
		t.Fatal("mark recovered from a destroyed WAL")
	}
	b.MarkSampled("m2", "r2")
	if err := b.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestCorruptSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	seedStore(a)
	if err := a.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snap := snapPath(dir, 1, 0)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // break the magic
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewSharded(0, 1)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("open with corrupt snapshot: want ErrBadSnapshot, got %v", err)
	}
}

func TestCompactionThresholdRewritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Threshold of one byte: every logged record triggers compaction.
	a := openPersistent(t, 1, PersistConfig{Dir: dir, SnapshotEveryBytes: 1})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if err := a.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st, err := os.Stat(walPath(dir, 1, 0)); err != nil || st.Size() != fileHeaderLen {
		t.Fatalf("WAL not reset by compaction: size %v err %v", st, err)
	}
	if st, err := os.Stat(snapPath(dir, 1, 0)); err != nil || st.Size() <= fileHeaderLen {
		t.Fatalf("snapshot missing after compaction: %v err %v", st, err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("post-compaction reopen mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestReopenWithDifferentShardCount(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 4, PersistConfig{Dir: dir})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b := openPersistent(t, 2, PersistConfig{Dir: dir})
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("reshard 4->2 mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := b.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The re-layout must have committed a new layout in the manifest and
	// swept the old layout's files.
	if layout, n, ok, err := readManifest(dir); err != nil || !ok || layout != 2 || n != 2 {
		t.Fatalf("manifest after reshard: layout=%d n=%d ok=%v err=%v", layout, n, ok, err)
	}
	if _, err := os.Stat(snapPath(dir, 1, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale layout-1 snapshot survived reshard: %v", err)
	}

	c := openPersistent(t, 8, PersistConfig{Dir: dir})
	defer c.ClosePersistence()
	if got := dumpState(c, seedQueryIDs); got != want {
		t.Fatalf("reshard 2->8 mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCrashBetweenSnapshotRenameAndWALReset covers compaction's crash
// window: the new snapshot (generation G+1) is on disk but the WAL
// (generation G) was never reset. Open must discard the stale WAL — its
// records are all contained in the snapshot — instead of replaying them on
// top of it, which would duplicate params spans and Bloom segments.
func TestCrashBetweenSnapshotRenameAndWALReset(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if err := a.FlushPersistence(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Save the full pre-compaction WAL, compact (snapshot gen 1, WAL
	// reset), then put the old generation-0 WAL back: exactly the state a
	// crash between the snapshot rename and the WAL truncate leaves.
	preWAL, err := os.ReadFile(walPath(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(walPath(dir, 1, 0), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("stale WAL was double-applied:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCrashedReshardLeavesOldLayoutIntact covers the re-layout crash
// window: new-layout files exist but the manifest was never swung. Open
// must recover entirely from the committed old layout and sweep the
// half-written one.
func TestCrashedReshardLeavesOldLayoutIntact(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 4, PersistConfig{Dir: dir})
	seedStore(a)
	want := dumpState(a, seedQueryIDs)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Fabricate a crashed 4->2 re-layout: a partial layout-2 snapshot (here:
	// a copy of one layout-1 shard, i.e. a subset of the data) with no
	// manifest commit.
	partial, err := os.ReadFile(walPath(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir, 2, 0), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 2, 0)+".tmp", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := openPersistent(t, 2, PersistConfig{Dir: dir})
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("recovery from crashed reshard mismatch:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := b.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if layout, n, ok, err := readManifest(dir); err != nil || !ok || layout != 2 || n != 2 {
		t.Fatalf("manifest after recovered reshard: layout=%d n=%d ok=%v err=%v", layout, n, ok, err)
	}
}

func TestRetentionSweep(t *testing.T) {
	const ttl = time.Minute
	clock := int64(1_000_000_000)
	b := NewSharded(0, 2)
	b.SetTimeSource(func() int64 { return clock })
	b.SetRetentionTTL(ttl)

	seedStore(b) // everything stamped at t0

	// Advance past the TTL and add fresh data the sweep must keep.
	clock += int64(ttl) + 1
	b.MarkSampled("tr-fresh", "edge-case")
	freshFilter := bloom.New(128, 0.01)
	freshFilter.Add("tr-fresh-approx")
	b.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: "tp1", Filter: freshFilter, Full: true}, true)

	stampBefore := b.writeStamp()
	dropped := b.SweepExpired()
	if dropped == 0 {
		t.Fatal("sweep dropped nothing")
	}

	// Old trace-keyed state and segments are gone...
	if b.Sampled("tr1") {
		t.Fatal("expired sampled mark survived")
	}
	if res := b.Query("tr1"); res.Kind != Miss {
		t.Fatalf("expired trace still answers %v", res.Kind)
	}
	if res := b.Query("tr2"); res.Kind != Miss {
		t.Fatalf("expired Bloom segment still answers %v", res.Kind)
	}
	// ...fresh state and patterns survive.
	if !b.Sampled("tr-fresh") {
		t.Fatal("fresh sampled mark swept")
	}
	if res := b.Query("tr-fresh-approx"); res.Kind != PartialHit {
		t.Fatalf("fresh Bloom segment swept: %v", res.Kind)
	}
	if b.SpanPatternCount() != 2 || b.TopoPatternCount() != 1 {
		t.Fatal("patterns must never be swept")
	}
	// Storage accounting shrank to patterns + the one fresh filter.
	_, _, blooms, params := b.StorageBytes()
	if params != 0 {
		t.Fatalf("expired params still accounted: %d bytes", params)
	}
	if want := int64(freshFilter.MarshaledSize()); blooms != want {
		t.Fatalf("bloom storage after sweep: %d, want %d", blooms, want)
	}
	// The write stamp advanced so cached answers cannot survive the sweep.
	if b.writeStamp() == stampBefore {
		t.Fatal("sweep did not advance epochs")
	}
	// A second sweep with nothing expired is a no-op.
	if n := b.SweepExpired(); n != 0 {
		t.Fatalf("idempotent sweep dropped %d", n)
	}
}

// TestRetentionSweepKeepsMarkAndParamsPaired: a sampled mark is stamped
// once at sampling time while params uploads refresh their stamp, so the
// pair must expire on the newer of the two — otherwise the mark drops
// first and the still-stored params become unreachable (the exact query
// path is gated on the mark).
func TestRetentionSweepKeepsMarkAndParamsPaired(t *testing.T) {
	const ttl = time.Minute
	clock := int64(1_000_000_000)
	b := NewSharded(0, 2)
	b.SetTimeSource(func() int64 { return clock })
	b.SetRetentionTTL(ttl)

	sp := &parser.SpanPattern{ID: "spp", Service: "svc", Operation: "op"}
	b.AcceptPatterns(&wire.PatternReport{Node: "n1", SpanPatterns: []*parser.SpanPattern{sp}})
	b.MarkSampled("trP", "symptom") // stamped at t0
	clock += int64(ttl) / 2
	b.AcceptParams(&wire.ParamsReport{ // params refreshed at t0 + ttl/2
		Node: "n1", TraceID: "trP",
		Spans: []*parser.ParsedSpan{{PatternID: "spp", TraceID: "trP", SpanID: "s1"}},
	})

	// Mark is past the TTL, params are not: the pair must survive intact.
	clock += int64(ttl)/2 + 1
	b.SweepExpired()
	if !b.Sampled("trP") {
		t.Fatal("mark expired ahead of its trace's params")
	}
	if res := b.Query("trP"); res.Kind != ExactHit {
		t.Fatalf("paired trace answers %v, want exact", res.Kind)
	}

	// Once the params stamp ages out too, both go in the same sweep.
	clock += int64(ttl) / 2
	if n := b.SweepExpired(); n != 2 {
		t.Fatalf("final sweep dropped %d items, want mark+params = 2", n)
	}
	if b.Sampled("trP") {
		t.Fatal("mark survived final sweep")
	}
	if _, _, _, params := b.StorageBytes(); params != 0 {
		t.Fatalf("params storage not reclaimed: %d bytes", params)
	}
}

func TestRetentionSurvivesReopen(t *testing.T) {
	const ttl = time.Minute
	dir := t.TempDir()
	clock := int64(1_000_000_000)

	a := NewSharded(0, 1)
	a.SetTimeSource(func() int64 { return clock })
	if err := a.OpenPersistence(PersistConfig{Dir: dir, RetentionTTL: ttl}); err != nil {
		t.Fatalf("open: %v", err)
	}
	seedStore(a)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen after the TTL: the open-time sweep must drop the replayed
	// expired state even though compaction never ran.
	clock += int64(ttl) + 1
	b := NewSharded(0, 1)
	b.SetTimeSource(func() int64 { return clock })
	if err := b.OpenPersistence(PersistConfig{Dir: dir, RetentionTTL: ttl}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.ClosePersistence()
	if b.Sampled("tr1") || b.Query("tr2").Kind != Miss {
		t.Fatal("expired state survived reopen")
	}
	if b.SpanPatternCount() != 2 {
		t.Fatal("patterns lost on reopen")
	}
}

// TestMissingManifestWithDataRefusesOpen: a directory holding real shard
// data but no MANIFEST is damaged, not fresh — re-initializing would
// compact empty state over the existing snapshots. Header-only residue of
// a first open that crashed before its manifest commit is still accepted.
func TestMissingManifestWithDataRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	seedStore(a)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	b := NewSharded(0, 1)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("open over orphaned data: want ErrBadSnapshot, got %v", err)
	}
	// The refused open must not have damaged anything: restoring the
	// manifest recovers the full store.
	if err := writeManifest(dir, 1, 1); err != nil {
		t.Fatal(err)
	}
	c := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer c.ClosePersistence()
	if c.SpanPatternCount() != 2 || !c.Sampled("tr1") {
		t.Fatal("store damaged by the refused open")
	}

	// Crashed-first-init residue (header-only WAL, no manifest) is fine.
	fresh := t.TempDir()
	if err := os.WriteFile(walPath(fresh, 1, 0), fileHeader(walMagic, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openPersistent(t, 1, PersistConfig{Dir: fresh})
	defer d.ClosePersistence()
}

func TestManifestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("what is this"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewSharded(0, 1)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); err == nil {
		t.Fatal("open accepted a garbage manifest")
	}
}

// snapshotFilterBytes sums the Bloom filter payload bytes the snapshot
// writer put into dir's snapshot files, read back from the files themselves.
func snapshotFilterBytes(t *testing.T, dir string) int64 {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files in %s: %v", dir, err)
	}
	var total int64
	for _, path := range snaps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := scanRecords(data[fileHeaderLen:], func(typ byte, _ int64, payload []byte) error {
			if typ != recBloom {
				return nil
			}
			d := wire.NewDecoder(payload)
			d.Str()  // node
			d.Str()  // pattern ID
			d.Bool() // full
			total += int64(len(d.Bytes()))
			return d.Done()
		})
		if err != nil || n != len(data)-fileHeaderLen {
			t.Fatalf("%s: scanned %d of %d bytes: %v", path, n, len(data)-fileHeaderLen, err)
		}
	}
	return total
}

// TestBloomStorageIsPersistedBytes: the Bloom component of StorageBytes is
// the filter bytes on disk. It holds while live segments grow by small and
// large deltas, through the switch to the dense form, when full filters
// retire them, and after a retention sweep; and a reopened and a
// resharded-reopened store report the same number.
func TestBloomStorageIsPersistedBytes(t *testing.T) {
	const ttl = time.Minute
	dir := t.TempDir()
	clock := int64(1_000_000_000)
	open := func(shards int) *Backend {
		b := NewSharded(0, shards)
		b.SetTimeSource(func() int64 { return clock })
		if err := b.OpenPersistence(PersistConfig{Dir: dir, RetentionTTL: ttl}); err != nil {
			t.Fatalf("open with %d shards: %v", shards, err)
		}
		return b
	}
	check := func(b *Backend, when string) int64 {
		t.Helper()
		_, _, blooms, _ := b.StorageBytes()
		if want := encodedFilterBytes(b); blooms != want {
			t.Fatalf("%s: bloom storage %d, stored filters encode to %d", when, blooms, want)
		}
		if err := b.Compact(); err != nil {
			t.Fatalf("%s: compact: %v", when, err)
		}
		if onDisk := snapshotFilterBytes(t, dir); blooms != onDisk {
			t.Fatalf("%s: bloom storage %d, snapshot files hold %d filter bytes", when, blooms, onDisk)
		}
		return blooms
	}

	a := open(4)
	seedStore(a) // one full segment and a live one merged from two deltas
	check(a, "seeded")

	// Merge deltas of several sizes into the live segments of several
	// patterns (sparse, then past the switch to the dense form), and retire
	// them with a full filter in one round.
	for round, n := range []int{1, 40, 3, 400, 0, 2} {
		for p := 0; p < 6; p++ {
			f := bloom.New(512, 0.01)
			for i := 0; i < max(n, 1); i++ {
				f.Add(fmt.Sprintf("r%d-p%d-t%d", round, p, i))
			}
			full := n == 0
			a.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: fmt.Sprintf("tp%d", p), Filter: f, Full: full}, full)
		}
		check(a, fmt.Sprintf("delta round %d", round))
	}

	// Age everything out except what arrives now.
	clock += int64(ttl) + 1
	for p := 0; p < 3; p++ {
		f := bloom.New(512, 0.01)
		f.Add(fmt.Sprintf("fresh-%d", p))
		a.AcceptBloom(&wire.BloomReport{Node: "n2", PatternID: fmt.Sprintf("tp%d", p), Filter: f, Full: p == 0}, p == 0)
	}
	before, _, _, _ := a.StorageBytes()
	if a.SweepExpired() == 0 {
		t.Fatal("sweep dropped nothing")
	}
	live := check(a, "after sweep")
	if after, _, _, _ := a.StorageBytes(); after >= before || live == 0 {
		t.Fatalf("sweep left storage at %d (was %d), blooms %d", after, before, live)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b := open(4)
	if got := check(b, "reopened"); got != live {
		t.Fatalf("reopened store reports %d bloom bytes, live store reported %d", got, live)
	}
	if err := b.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c := open(3)
	defer c.ClosePersistence()
	if got := check(c, "resharded"); got != live {
		t.Fatalf("resharded store reports %d bloom bytes, live store reported %d", got, live)
	}
}

// TestVersion2DataDirRefused: the filter encoding changed with snapshot
// version 2, and with version 3 a periodic Bloom record became a delta to
// merge where version 2 wrote a snapshot to replace; there is no reader for
// either old format. A version-1 or version-2 directory must fail open
// loudly, by its manifest and by each file header alike.
func TestVersion2DataDirRefused(t *testing.T) {
	for _, old := range []byte{1, 2} {
		dir := t.TempDir()
		a := openPersistent(t, 1, PersistConfig{Dir: dir})
		seedStore(a)
		if err := a.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := a.ClosePersistence(); err != nil {
			t.Fatalf("close: %v", err)
		}
		want := fmt.Sprintf("version %d (want %d)", old, snapshotVersion)
		refused := func(what string) {
			t.Helper()
			b := NewSharded(0, 1)
			err := b.OpenPersistence(PersistConfig{Dir: dir})
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: open err = %v, want ErrBadSnapshot naming %s", what, err, want)
			}
		}

		// The snapshot file says the old version (bytes 8..11 of its header).
		snap := snapPath(dir, 1, 0)
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = old
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(fmt.Sprintf("version-%d snapshot header", old))

		// The manifest says so too: refused before any file is read.
		manifest := fmt.Sprintf("mint-data %d\nlayout 1\nshards 1\n", old)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(fmt.Sprintf("version-%d manifest", old))
	}
}
