package backend

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	wal := filepath.Join(dir, walName)
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
	wal := filepath.Join(dir, walName)
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
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("not a wal"), 0o644); err != nil {
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
	snap := filepath.Join(dir, snapName)
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
	if st, err := os.Stat(filepath.Join(dir, walName)); err != nil || st.Size() != fileHeaderLen {
		t.Fatalf("WAL not reset by compaction: size %v err %v", st, err)
	}
	if st, err := os.Stat(filepath.Join(dir, snapName)); err != nil || st.Size() <= fileHeaderLen {
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
	// Resharding is plain replay: after a compaction the directory holds
	// the store's two files whatever the shard count.
	if err := b.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := b.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := strings.Join(dirNames(t, dir), " "); got != snapName+" "+walName {
		t.Fatalf("data directory after compaction holds %s", got)
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
	preWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	b := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if got := dumpState(b, seedQueryIDs); got != want {
		t.Fatalf("stale WAL was double-applied:\nwant:\n%s\ngot:\n%s", want, got)
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

// TestMissingSnapshotRefusesOpen: a WAL newer than its snapshot follows a
// snapshot that went missing. Replaying it alone would silently drop what
// the snapshot held, so open refuses the directory and leaves it as it
// was; restoring the snapshot recovers every record. A header-only WAL
// with no snapshot is a fresh store and still opens.
func TestMissingSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 1, PersistConfig{Dir: dir})
	seedStore(a)
	if err := a.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	a.MarkSampled("tr-late", "edge-case")
	want := dumpState(a, append(seedQueryIDs, "tr-late"))
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	snapPath := filepath.Join(dir, snapName)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	b := NewSharded(0, 1)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("open without the snapshot: want ErrBadSnapshot, got %v", err)
	}
	if after := dirContents(t, dir); after != before {
		t.Fatalf("refused open changed the directory:\nbefore %s\nafter  %s", before, after)
	}

	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	c := openPersistent(t, 1, PersistConfig{Dir: dir})
	defer c.ClosePersistence()
	if got := dumpState(c, append(seedQueryIDs, "tr-late")); got != want || !c.Sampled("tr-late") {
		t.Fatalf("restored snapshot did not recover the store:\nwant:\n%s\ngot:\n%s", want, got)
	}

	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, walName), fileHeader(walMagic, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openPersistent(t, 1, PersistConfig{Dir: fresh})
	defer d.ClosePersistence()
}

// dirNames lists a directory's entries in name order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// dirContents renders every file of a directory, name and bytes, so a test
// can check that an operation left the directory byte-identical.
func dirContents(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range dirNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s=%x;", name, data)
	}
	return sb.String()
}

// snapshotFilterBytes sums the Bloom filter payload bytes the snapshot
// writer put into dir's snapshot, read back from the file itself.
func snapshotFilterBytes(t *testing.T, dir string) int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
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
		t.Fatalf("snapshot: scanned %d of %d bytes: %v", n, len(data)-fileHeaderLen, err)
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

// TestOldVersionDataDirRefused: the filter encoding changed with snapshot
// version 2, with version 3 a periodic Bloom record became a delta to merge
// where version 2 wrote a snapshot to replace, and version 4 replaced the
// per-shard files with one snapshot and one WAL; there is no reader for any
// other format. A snapshot header naming another version must fail open.
func TestOldVersionDataDirRefused(t *testing.T) {
	for _, old := range []byte{1, 2, 3, 5} {
		dir := t.TempDir()
		a := openPersistent(t, 1, PersistConfig{Dir: dir})
		seedStore(a)
		if err := a.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := a.ClosePersistence(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// The snapshot file says the old version (bytes 8..11 of its header).
		snap := filepath.Join(dir, snapName)
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = old
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d (want %d)", old, snapshotVersion)
		b := NewSharded(0, 1)
		if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d snapshot header: open err = %v, want ErrBadSnapshot naming %s", old, err, want)
		}
	}
}

// TestOtherVersionWALRefused: a directory whose only file is a WAL (no
// compaction has run yet) is refused like a snapshot when its header names
// another format version, and left byte-identical — not read as an
// unreadable header and truncated to an empty log.
func TestOtherVersionWALRefused(t *testing.T) {
	for _, v := range []byte{3, 5} {
		dir := t.TempDir()
		a := openPersistent(t, 1, PersistConfig{Dir: dir})
		seedStore(a)
		if err := a.ClosePersistence(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != walName {
			t.Fatalf("want a WAL-only directory, got %v", names)
		}
		wal := filepath.Join(dir, walName)
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		data[8] = v
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirContents(t, dir)
		want := fmt.Sprintf("version %d (want %d)", v, snapshotVersion)
		b := NewSharded(0, 1)
		if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d WAL header: open err = %v, want ErrBadSnapshot naming %s", v, err, want)
		}
		if after := dirContents(t, dir); after != before {
			t.Fatalf("version-%d WAL: refused open changed the directory:\nbefore %s\nafter  %s", v, before, after)
		}
	}
}

// TestCompactionThresholdScalesWithShards: SnapshotEveryBytes is a per-shard
// allowance. A compaction rewrites every shard, so an N-shard store
// compacts once its WAL passes N times the allowance, which keeps the
// snapshot bytes written per WAL byte independent of the shard count.
func TestCompactionThresholdScalesWithShards(t *testing.T) {
	const allowance = 4 << 10
	dir := t.TempDir()
	a := openPersistent(t, 4, PersistConfig{Dir: dir, SnapshotEveryBytes: allowance})
	defer a.ClosePersistence()
	snapshotted := func() bool {
		_, err := os.Stat(filepath.Join(dir, snapName))
		return err == nil
	}
	for i := 0; a.persist.wal.bytes < 3*allowance && !snapshotted(); i++ {
		a.MarkSampled(fmt.Sprintf("t%d", i), "symptom")
	}
	if snapshotted() {
		t.Fatalf("compacted at %d WAL bytes, below 4 shards x %d", a.persist.wal.bytes, allowance)
	}
	for i := 0; !snapshotted(); i++ {
		if i > 10000 {
			t.Fatalf("no compaction after %d more marks", i)
		}
		a.MarkSampled(fmt.Sprintf("u%d", i), "symptom")
	}
}

// TestPerShardLayoutRefused: format 3 and older kept one snapshot and one
// WAL per shard under a MANIFEST. Such a directory must fail open before
// any file is read or written, so it is left exactly as it was.
func TestPerShardLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{
		"MANIFEST":              []byte("mint-data 3\nlayout 1\nshards 1\n"),
		"l0001-shard-0000.snap": append(fileHeader(snapMagic, 1), "records"...),
		"l0001-shard-0000.wal":  append(fileHeader(walMagic, 1), "records"...),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirContents(t, dir)
	b := NewSharded(0, 1)
	if err := b.OpenPersistence(PersistConfig{Dir: dir}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("open of a per-shard layout: want ErrBadSnapshot, got %v", err)
	}
	if after := dirContents(t, dir); after != before {
		t.Fatalf("refused open changed the directory:\nbefore %s\nafter  %s", before, after)
	}
}

// TestCompactionUnderConcurrentWriters races writers on every shard, and
// readers, against the compactions a tiny threshold keeps triggering:
// every compaction takes all shard locks while appends hold one, so the
// lock order must hold, and a reopen at another shard count must answer
// exactly like the store that wrote the files.
func TestCompactionUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	a := openPersistent(t, 4, PersistConfig{Dir: dir, SnapshotEveryBytes: 512})
	seedStore(a)
	const writers, perWriter = 8, 60
	var ids []string
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			ids = append(ids, fmt.Sprintf("w%d-t%d", g, i))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-t%d", g, i)
				a.MarkSampled(id, "symptom")
				a.AcceptParams(&wire.ParamsReport{
					Node: "n1", TraceID: id,
					Spans: []*parser.ParsedSpan{{PatternID: "sp1", TraceID: id, SpanID: "s1", AttrParams: [][]string{{"1"}, {"2"}, {"t"}}}},
				})
				f := bloom.New(64, 0.01)
				f.Add(id)
				a.AcceptBloom(&wire.BloomReport{Node: "n1", PatternID: fmt.Sprintf("tp%d", i%5), Filter: f}, false)
				a.Query(ids[(g*perWriter+i*7)%len(ids)])
			}
		}(g)
	}
	wg.Wait()
	all := append(append([]string(nil), seedQueryIDs...), ids...)
	want := dumpState(a, all)
	if err := a.ClosePersistence(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no compaction ran: %v", err)
	}
	b := openPersistent(t, 3, PersistConfig{Dir: dir})
	defer b.ClosePersistence()
	if got := dumpState(b, all); got != want {
		t.Fatalf("reopen at 3 shards differs from the store that wrote it:\nwant:\n%s\ngot:\n%s", want, got)
	}
}
