package backend

// The durable storage engine: per-shard snapshot + write-ahead-log files,
// TTL retention, and size-triggered compaction.
//
// On-disk layout under PersistConfig.Dir:
//
//	MANIFEST              format version + live layout number + shard count
//	l0001-shard-0000.snap versioned snapshot of shard 0 (written atomically)
//	l0001-shard-0000.wal  mutations accepted by shard 0 since its snapshot
//	l0001-shard-0001.snap ...
//
// Recovery replays each shard's snapshot and then its WAL through the same
// apply path live mutations take; a torn or corrupt WAL tail (the expected
// residue of a crash mid-append) is truncated at the last intact record.
// Two mechanisms make recovery crash-consistent end to end:
//
//   - Shard generations. Compaction bumps the shard's generation, makes the
//     new snapshot durable under it, and only then resets the WAL to the
//     same generation. A WAL whose generation differs from its snapshot's
//     is the residue of a crash inside that window; its records are already
//     contained in the snapshot, so open discards it instead of replaying
//     records twice.
//
//   - Layout numbers. Because replay routes records through the shard
//     router, a directory written with M shards opens correctly under any
//     shard count N; when M != N the directory is re-laid-out. The new
//     layout is written under fresh layout-numbered filenames and committed
//     by atomically rewriting MANIFEST; a crash before the commit leaves
//     the old layout untouched (stale half-written layouts are swept on the
//     next open), a crash after it leaves the new layout complete.
//
// Persistence is shard-local by design (the McKenney partitioning
// argument): each shard appends to its own buffered WAL under its own
// lock, so one shard's disk activity — including its compaction — never
// blocks writers on other shards.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/intern"
	"repro/internal/telemetry"
)

// DefaultSnapshotEveryBytes is the WAL size that triggers a shard's
// compaction when PersistConfig.SnapshotEveryBytes is zero.
const DefaultSnapshotEveryBytes = 4 << 20

// DefaultSweepInterval is the cadence of the background retention/flush loop
// when PersistConfig.SweepInterval is zero.
const DefaultSweepInterval = time.Minute

// manifestName is the file recording the format version and shard layout.
const manifestName = "MANIFEST"

// PersistConfig configures the durable storage engine attached by
// OpenPersistence. Zero values take the package defaults.
type PersistConfig struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// RetentionTTL drops Bloom segments, sampled marks and parameters older
	// than this age (pattern libraries are kept forever — they are the tiny,
	// deduplicated commonality). 0 keeps everything forever.
	RetentionTTL time.Duration
	// SnapshotEveryBytes rewrites a shard's snapshot and resets its WAL once
	// the WAL exceeds this size. 0 takes DefaultSnapshotEveryBytes.
	SnapshotEveryBytes int64
	// SweepInterval is the cadence of the background loop that applies
	// retention and flushes WAL buffers to disk. 0 takes
	// DefaultSweepInterval.
	SweepInterval time.Duration
}

// Group-commit sizing: a pending group seals — one frame, one CRC — once it
// holds this many records or this many payload bytes. Sealing also happens
// on every explicit flush, compaction and close, so durability points are
// unchanged; the thresholds only bound how much framing work the steady
// state amortizes.
const (
	walGroupRecords = 128
	walGroupBytes   = 32 << 10
)

// walFile is one shard's append-side WAL state. Appends run under the
// owning shard's lock, so mu only arbitrates appends against the background
// flush loop and compaction.
type walFile struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	bytes int64 // record bytes since the last snapshot (header excluded)
	// nextCompact is the bytes level that triggers the next compaction
	// attempt. It is advanced before each attempt, so a failing compaction
	// (disk full) backs off for another threshold's worth of records
	// instead of re-encoding the whole shard on every subsequent append.
	nextCompact int64
	// needsReset marks a WAL whose generation fell behind its snapshot's
	// because the post-rename reset failed. Appending to such a log would
	// fabricate durability — recovery discards old-generation WALs — so
	// appends first retry the reset and drop the record if it still fails.
	needsReset bool

	// Group-commit state (guarded by mu). Records accumulate as length-
	// prefixed bodies in group; sealGroupLocked frames them as one recGroup
	// record with a single CRC and hands the frame to the buffered writer.
	// Both buffers are reused for the life of the WAL, so steady-state
	// logging allocates nothing.
	group   []byte
	groupN  int
	groupAt int64  // timestamp of the group's first record
	scratch []byte // reusable body/frame encode buffer
}

// persister is the attached storage engine: one WAL per shard plus the
// sticky first I/O error and the background loop's lifecycle.
type persister struct {
	dir       string
	layout    int // filename namespace committed by the manifest
	threshold int64
	wals      []*walFile
	gens      []uint64 // per-shard generation (mutated under the shard's lock)

	errMu sync.Mutex
	err   error // first I/O error; surfaced by FlushPersistence/ClosePersistence

	stop chan struct{}
	done chan struct{}

	// Telemetry surfaces, shared with the owning backend: append/flush
	// latency histograms and the slow-op ledger.
	walAppend *telemetry.Histogram
	walFlush  *telemetry.Histogram
	slow      *telemetry.Ledger
}

func snapPath(dir string, layout, i int) string {
	return filepath.Join(dir, fmt.Sprintf("l%04d-shard-%04d.snap", layout, i))
}

func walPath(dir string, layout, i int) string {
	return filepath.Join(dir, fmt.Sprintf("l%04d-shard-%04d.wal", layout, i))
}

// fsyncDir flushes a directory's entry table, making renames and creations
// inside it durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// renameSync renames tmp over final and fsyncs the parent directory, so the
// rename survives power loss.
func renameSync(tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(final))
}

// manifestField parses one "<name> <decimal>\n" line at the head of rest,
// returning the value and the remainder. Strict: the label, the single
// space, the all-digit value and the trailing newline must match exactly.
func manifestField(rest, name string) (val int, tail string, ok bool) {
	if len(rest) < len(name)+1 || rest[:len(name)] != name || rest[len(name)] != ' ' {
		return 0, "", false
	}
	rest = rest[len(name)+1:]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		val = val*10 + int(rest[i]-'0')
		i++
		if val > 1<<30 {
			return 0, "", false
		}
	}
	if i == 0 || i >= len(rest) || rest[i] != '\n' {
		return 0, "", false
	}
	return val, rest[i+1:], true
}

// parseManifest strictly decodes a MANIFEST body. Unlike the fmt.Sscanf
// parser it replaces, it rejects trailing garbage and malformed fields
// instead of silently ignoring them — a manifest is tiny, hand-editable
// state whose corruption must fail loudly, not be half-read.
func parseManifest(body string) (version, layout, shards int, err error) {
	rest := body
	var ok bool
	if version, rest, ok = manifestField(rest, "mint-data"); !ok {
		return 0, 0, 0, errors.New("bad version line")
	}
	if layout, rest, ok = manifestField(rest, "layout"); !ok {
		return 0, 0, 0, errors.New("bad layout line")
	}
	if shards, rest, ok = manifestField(rest, "shards"); !ok {
		return 0, 0, 0, errors.New("bad shards line")
	}
	if rest != "" {
		return 0, 0, 0, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return version, layout, shards, nil
}

// readManifest parses dir's MANIFEST. ok is false when none exists yet.
func readManifest(dir string) (layout, shards int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	version, layout, shards, perr := parseManifest(string(data))
	if perr != nil {
		return 0, 0, false, fmt.Errorf("backend: malformed %s: %v", manifestName, perr)
	}
	if version != snapshotVersion {
		return 0, 0, false, fmt.Errorf("%w: manifest version %d (want %d)", ErrBadSnapshot, version, snapshotVersion)
	}
	if shards < 1 || layout < 1 {
		return 0, 0, false, fmt.Errorf("backend: malformed %s: layout %d, %d shards", manifestName, layout, shards)
	}
	return layout, shards, true, nil
}

// writeManifest atomically commits a layout: temp file, fsync, rename,
// directory fsync. The manifest is the single commit point of a re-layout.
func writeManifest(dir string, layout, shards int) error {
	body := fmt.Sprintf("mint-data %d\nlayout %d\nshards %d\n", snapshotVersion, layout, shards)
	final := filepath.Join(dir, manifestName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, []byte(body)); err != nil {
		return err
	}
	return renameSync(tmp, final)
}

// parseShardFileName strictly decodes a "l<layout>-shard-<shard>.<ext>"
// shard filename (the ext still attached by the caller's filepath.Ext).
// Foreign files in the data directory must never match.
func parseShardFileName(name string) (layout, shard int, ok bool) {
	base := name[:len(name)-len(filepath.Ext(name))]
	if len(base) < 1 || base[0] != 'l' {
		return 0, 0, false
	}
	rest := base[1:]
	digits := func(s string) (int, int, bool) {
		v, i := 0, 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			v = v*10 + int(s[i]-'0')
			i++
			if v > 1<<30 {
				return 0, 0, false
			}
		}
		return v, i, i >= 4 // %04d renders at least four digits
	}
	var n int
	if layout, n, ok = digits(rest); !ok {
		return 0, 0, false
	}
	rest = rest[n:]
	const sep = "-shard-"
	if len(rest) < len(sep) || rest[:len(sep)] != sep {
		return 0, 0, false
	}
	rest = rest[len(sep):]
	if shard, n, ok = digits(rest); !ok || n != len(rest) {
		return 0, 0, false
	}
	return layout, shard, true
}

// sweepStaleLayouts removes shard files that do not belong to the committed
// layout: older layouts a finished re-layout left behind, or newer ones a
// crashed re-layout never committed.
func sweepStaleLayouts(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		if ext != ".snap" && ext != ".wal" && ext != ".tmp" {
			continue
		}
		layout, _, ok := parseShardFileName(name)
		if !ok {
			continue
		}
		if layout != keep || ext == ".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// orphanedShardData reports whether dir holds a shard file with actual
// records despite having no MANIFEST — a lost or damaged manifest, not a
// fresh directory. Header-only (or smaller) files are the residue of a
// first open that crashed before its manifest commit, when no data could
// have existed yet; those are safe to re-initialize over.
func orphanedShardData(dir string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		if ext != ".snap" && ext != ".wal" {
			continue
		}
		if _, _, ok := parseShardFileName(name); !ok {
			continue
		}
		if st, err := e.Info(); err == nil && st.Size() > fileHeaderLen {
			return name, true
		}
	}
	return "", false
}

// OpenPersistence attaches the durable storage engine: existing snapshots
// and WALs under cfg.Dir are replayed into the (expected-empty) store, torn
// WAL tails are truncated, and from then on every mutation is logged to its
// shard's WAL. Call before serving traffic; it is not synchronized with
// concurrent use. The engine is detached by ClosePersistence.
func (b *Backend) OpenPersistence(cfg PersistConfig) error {
	if b.persist != nil {
		return errors.New("backend: persistence already open")
	}
	if cfg.Dir == "" {
		return errors.New("backend: PersistConfig.Dir is required")
	}
	if cfg.SnapshotEveryBytes == 0 {
		cfg.SnapshotEveryBytes = DefaultSnapshotEveryBytes
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = DefaultSweepInterval
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	layout, oldShards, haveManifest, err := readManifest(cfg.Dir)
	if err != nil {
		return err
	}
	if !haveManifest {
		// Refuse to re-initialize over real data whose manifest went
		// missing — that is a damaged directory, and silently compacting
		// empty state over it would destroy the shard files.
		if name, orphaned := orphanedShardData(cfg.Dir); orphaned {
			return fmt.Errorf("%w: %s has shard data (%s) but no %s", ErrBadSnapshot, cfg.Dir, name, manifestName)
		}
		layout = 1
	}
	// Drop the residue of older layouts and of re-layouts that never
	// reached their manifest commit.
	sweepStaleLayouts(cfg.Dir, layout)

	// Phase 1 — replay the committed layout. Records route through the
	// shard router, so the on-disk shard count need not match ours.
	walKeep := map[int]int64{} // old shard index -> verified WAL prefix length
	snapGens := map[int]uint64{}
	if haveManifest {
		for i := 0; i < oldShards; i++ {
			if data, err := os.ReadFile(snapPath(cfg.Dir, layout, i)); err == nil {
				gen, err := b.loadSnapshot(data)
				if err != nil {
					return fmt.Errorf("replaying %s: %w", snapPath(cfg.Dir, layout, i), err)
				}
				snapGens[i] = gen
			} else if !errors.Is(err, os.ErrNotExist) {
				return err
			}
			data, err := os.ReadFile(walPath(cfg.Dir, layout, i))
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return err
			}
			walGen, hdrErr := checkHeader(data, walMagic)
			if hdrErr != nil || walGen != snapGens[i] {
				// Unreadable header, or a WAL from before the shard's
				// current snapshot (a crash between compaction's snapshot
				// rename and WAL reset): every record is already in the
				// snapshot. Recover to an empty log.
				walKeep[i] = 0
				continue
			}
			consumed, err := scanRecords(data[fileHeaderLen:], b.applyRecord)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", walPath(cfg.Dir, layout, i), err)
			}
			walKeep[i] = int64(fileHeaderLen + consumed)
		}
	}

	// Phase 2 — open the append side for every current shard, truncating
	// whatever replay refused past. A shard-count change targets the next
	// layout number; its files start fresh and the old layout stays intact
	// until the manifest commit below.
	relayout := !haveManifest || oldShards != len(b.shards)
	targetLayout := layout
	if relayout && haveManifest {
		targetLayout = layout + 1
	}
	p := &persister{
		dir:       cfg.Dir,
		layout:    targetLayout,
		threshold: cfg.SnapshotEveryBytes,
		wals:      make([]*walFile, len(b.shards)),
		gens:      make([]uint64, len(b.shards)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		walAppend: b.tel.Histogram("mint_wal_append_seconds", "",
			"WAL record append latency (group buffering; includes the triggered compaction when the append trips it)."),
		walFlush: b.tel.Histogram("mint_wal_flush_seconds", "",
			"WAL group-commit flush latency: seal + buffered write + fsync across shards."),
		slow: b.slow,
	}
	for i := range b.shards {
		f, err := os.OpenFile(walPath(cfg.Dir, targetLayout, i), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			p.closeFiles()
			return err
		}
		size := int64(0)
		if st, err := f.Stat(); err == nil {
			size = st.Size()
		}
		if !relayout {
			p.gens[i] = snapGens[i]
			if keep, ok := walKeep[i]; ok && keep < size {
				if err := f.Truncate(keep); err != nil {
					p.closeFiles()
					return err
				}
				size = keep
			}
		}
		if size < fileHeaderLen {
			if err := f.Truncate(0); err != nil {
				p.closeFiles()
				return err
			}
			size = 0
		}
		if _, err := f.Seek(size, 0); err != nil {
			p.closeFiles()
			return err
		}
		w := &walFile{f: f, w: bufio.NewWriter(f), nextCompact: p.threshold}
		if size == 0 {
			w.w.Write(fileHeader(walMagic, p.gens[i]))
		} else {
			w.bytes = size - fileHeaderLen
		}
		p.wals[i] = w
	}
	b.persist = p
	b.retentionTTL = int64(cfg.RetentionTTL)

	// Phase 3 — commit a re-layout: materialize every current shard under
	// the new layout, fsync it all, then swing the manifest. Only after the
	// commit is the old layout removed.
	if relayout {
		if err := b.Compact(); err != nil {
			b.detachPersistence()
			return err
		}
		if err := writeManifest(cfg.Dir, targetLayout, len(b.shards)); err != nil {
			b.detachPersistence()
			return err
		}
		if targetLayout != layout {
			sweepStaleLayouts(cfg.Dir, targetLayout)
		}
	}

	if cfg.RetentionTTL > 0 {
		b.SweepExpired()
	}
	go b.retentionLoop(p, cfg.SweepInterval, cfg.RetentionTTL > 0)
	return nil
}

// retentionLoop is the background duty cycle: apply TTL retention and push
// WAL buffers to disk so the durability lag is bounded by the interval.
func (b *Backend) retentionLoop(p *persister, interval time.Duration, sweep bool) {
	defer close(p.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if sweep {
				b.SweepExpired()
			}
			p.flush()
		}
	}
}

// setErr latches the first I/O error; persistence keeps attempting later
// writes, and the error surfaces from FlushPersistence/ClosePersistence.
func (p *persister) setErr(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *persister) firstErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// logLocked appends one record to shard idx's WAL group and, when the WAL
// has outgrown the snapshot threshold, compacts the shard in place. The
// payload is encoded by enc straight into the WAL's reused scratch buffer —
// no per-record allocation. The caller holds s.mu — which is what
// guarantees the WAL's record order matches the order mutations were
// applied to the shard.
func (p *persister) logLocked(idx int, s *shard, typ byte, at int64, enc func(dst []byte) []byte) {
	start := time.Now()
	p.logLockedTimed(idx, s, typ, at, enc)
	d := time.Since(start)
	p.walAppend.Observe(d)
	if p.slow.Exceeds(d) {
		p.slow.Record("wal-append", "", d, 0, idx)
	}
}

func (p *persister) logLockedTimed(idx int, s *shard, typ byte, at int64, enc func(dst []byte) []byte) {
	w := p.wals[idx]
	w.mu.Lock()
	if w.needsReset {
		// The WAL's generation is behind its snapshot's (a failed reset
		// after a successful compaction). Recovery discards such a log, so
		// writing into it would only pretend durability: retry the reset
		// first, and on failure drop the record with the error latched —
		// the mutation stays correct in memory either way.
		if err := p.resetWALLocked(w, p.gens[idx]); err != nil {
			p.setErr(err)
			w.mu.Unlock()
			return
		}
	}
	// Encode the record body ([type][varint at][payload]) into scratch,
	// then append it length-prefixed to the pending group.
	body := append(w.scratch[:0], typ)
	body = binary.AppendVarint(body, at)
	body = enc(body)
	w.scratch = body
	if w.groupN == 0 {
		w.groupAt = at
	}
	w.group = binary.AppendUvarint(w.group, uint64(len(body)))
	w.group = append(w.group, body...)
	w.groupN++
	w.bytes += int64(len(body)) + 2 // body plus its share of group framing
	var err error
	if w.groupN >= walGroupRecords || len(w.group) >= walGroupBytes {
		err = p.sealGroupLocked(w)
	}
	full := p.threshold > 0 && w.bytes >= w.nextCompact
	if full {
		w.nextCompact = w.bytes + p.threshold // back off if the attempt fails
	}
	w.mu.Unlock()
	if err != nil {
		p.setErr(err)
		return
	}
	if full {
		p.compactShardLocked(idx, s)
	}
}

// sealGroupLocked frames the pending group as one recGroup record — one
// length prefix, one CRC, one buffered write — and clears it. Caller holds
// w.mu. A no-op when nothing is pending.
func (p *persister) sealGroupLocked(w *walFile) error {
	if w.groupN == 0 {
		return nil
	}
	w.scratch = appendRecord(w.scratch[:0], recGroup, w.groupAt, w.group)
	_, err := w.w.Write(w.scratch)
	w.group = w.group[:0]
	w.groupN = 0
	return err
}

// resetWALLocked truncates a WAL and starts it over at the given
// generation. The pending group is discarded with the buffered records —
// the snapshot that triggered the reset already contains them. Caller
// holds w.mu.
func (p *persister) resetWALLocked(w *walFile, gen uint64) error {
	w.w.Reset(w.f) // discard buffered records; they are in the snapshot
	w.group = w.group[:0]
	w.groupN = 0
	if err := w.f.Truncate(0); err != nil {
		w.needsReset = true
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		w.needsReset = true
		return err
	}
	w.w.Write(fileHeader(walMagic, gen))
	w.bytes = 0
	w.nextCompact = p.threshold
	w.needsReset = false
	return nil
}

// compactShardLocked rewrites shard idx's snapshot from its live state
// under a bumped generation and resets its WAL to that generation. The
// caller holds s.mu, so no mutation can slip between the state capture and
// the WAL reset; the triggering writer pays the encode and two fsyncs, and
// the shard's other writers and readers stall for that disk write. That
// stall is the deliberate price of the crash-safety ordering — the new
// snapshot must be durable (temp file + fsync + rename + directory fsync)
// before the WAL it subsumes is dropped, and moving the write off the lock
// would need a second, rotated log per shard. It is bounded by
// SnapshotEveryBytes and stays strictly shard-local. If the post-rename
// WAL reset fails, the log is marked needsReset so no append lands in a
// file recovery would discard (see logLocked).
func (p *persister) compactShardLocked(idx int, s *shard) {
	gen := p.gens[idx] + 1
	buf := encodeShardSnapshot(s, gen)
	final := snapPath(p.dir, p.layout, idx)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		p.setErr(err)
		return
	}
	if err := renameSync(tmp, final); err != nil {
		p.setErr(err)
		return
	}
	p.gens[idx] = gen
	w := p.wals[idx]
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := p.resetWALLocked(w, gen); err != nil {
		p.setErr(err)
	}
}

// writeFileSync writes data to path and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flush seals every WAL's pending group, pushes the buffers to disk and
// fsyncs — the durability point group commit preserves.
func (p *persister) flush() {
	start := time.Now()
	for _, w := range p.wals {
		w.mu.Lock()
		if err := p.sealGroupLocked(w); err != nil {
			p.setErr(err)
		} else if err := w.w.Flush(); err != nil {
			p.setErr(err)
		} else if err := w.f.Sync(); err != nil {
			p.setErr(err)
		}
		w.mu.Unlock()
	}
	d := time.Since(start)
	p.walFlush.Observe(d)
	if p.slow.Exceeds(d) {
		p.slow.Record("wal-flush", "fsync", d, 0, -1)
	}
}

func (p *persister) closeFiles() {
	for _, w := range p.wals {
		if w != nil && w.f != nil {
			w.f.Close()
		}
	}
}

// detachPersistence tears the engine down without flushing (used on open
// failure, before any mutation could have been logged).
func (b *Backend) detachPersistence() {
	if b.persist == nil {
		return
	}
	b.persist.closeFiles()
	b.persist = nil
}

// FlushPersistence forces every shard's WAL buffer to durable storage. A
// query answered after FlushPersistence returns is answerable again after a
// crash and reopen. Returns the engine's first I/O error, if any; a no-op
// without persistence attached.
func (b *Backend) FlushPersistence() error {
	p := b.persist
	if p == nil {
		return nil
	}
	p.flush()
	return p.firstErr()
}

// SyncWAL seals every shard's pending WAL group and pushes the buffered
// records to the operating system — no fsync. It is the acknowledgement
// point of the remote ingest path: once SyncWAL returns, the acknowledged
// records survive a crash of this process (the page cache outlives it),
// though not a host power loss — that stronger point is FlushPersistence,
// which the client's durable flush and the daemon's shutdown path call.
// Returns the engine's first I/O error, if any; a no-op without persistence
// attached.
func (b *Backend) SyncWAL() error {
	p := b.persist
	if p == nil {
		return nil
	}
	start := time.Now()
	for _, w := range p.wals {
		w.mu.Lock()
		if err := p.sealGroupLocked(w); err != nil {
			p.setErr(err)
		} else if err := w.w.Flush(); err != nil {
			p.setErr(err)
		}
		w.mu.Unlock()
	}
	d := time.Since(start)
	p.walFlush.Observe(d)
	if p.slow.Exceeds(d) {
		p.slow.Record("wal-flush", "sync", d, 0, -1)
	}
	return p.firstErr()
}

// PersistErr returns the durable storage engine's sticky first I/O error —
// the readiness signal /healthz reports — or nil when none has occurred or
// no persistence is attached.
func (b *Backend) PersistErr() error {
	p := b.persist
	if p == nil {
		return nil
	}
	return p.firstErr()
}

// Compact rewrites every shard's snapshot from live state and resets its
// WAL — the explicit form of what the engine does per shard when a WAL
// outgrows SnapshotEveryBytes. A no-op without persistence attached.
func (b *Backend) Compact() error {
	p := b.persist
	if p == nil {
		return nil
	}
	for i, s := range b.shards {
		s.mu.Lock()
		p.compactShardLocked(i, s)
		s.mu.Unlock()
	}
	return p.firstErr()
}

// ClosePersistence stops the retention loop, flushes and closes the WAL
// files, and detaches the engine (later mutations stay memory-only). Safe
// to call without persistence attached; must not race with concurrent
// writes. Returns the engine's first I/O error, if any.
func (b *Backend) ClosePersistence() error {
	p := b.persist
	if p == nil {
		return nil
	}
	close(p.stop)
	<-p.done
	p.flush()
	p.closeFiles()
	b.persist = nil
	return p.firstErr()
}

// SetRetentionTTL bounds the age of trace-keyed state and Bloom segments
// enforced by SweepExpired; 0 disables retention. OpenPersistence sets it
// from PersistConfig.RetentionTTL, but it also works memory-only. Configure
// before serving traffic.
func (b *Backend) SetRetentionTTL(ttl time.Duration) { b.retentionTTL = int64(ttl) }

// SweepExpired applies TTL retention now: Bloom segments, sampled marks and
// parameters older than the retention TTL are dropped from every shard
// (pattern libraries are kept — they are the deduplicated commonality,
// negligible in size and shared by live traffic). Storage accounting
// shrinks accordingly and affected shards' epochs advance, invalidating
// cached query results. Returns the number of items dropped. The background
// loop calls this on its interval; tests and operators may call it
// directly. Expired data still present in snapshot/WAL files disappears at
// the next compaction — and is re-dropped by the open-time sweep if a crash
// intervenes before one.
func (b *Backend) SweepExpired() int {
	ttl := b.retentionTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := b.now() - ttl
	dropped := 0
	for _, s := range b.shards {
		s.mu.Lock()
		dropped += s.sweepLocked(cutoff)
		s.mu.Unlock()
	}
	return dropped
}

// sweepLocked drops the shard's expired state and rebuilds the segment
// index around the survivors. Caller holds s.mu.
func (s *shard) sweepLocked(cutoff int64) int {
	dropped := 0
	// A trace's sampled mark and its params expire together, on the newer
	// of their two stamps: the mark is set once at sampling time while
	// params uploads keep refreshing, and expiring them independently would
	// orphan stored params behind a dropped mark (the exact query path is
	// gated on the mark).
	for id, at := range s.sampledAt {
		if pat := s.paramsAt[id]; pat > at {
			at = pat
		}
		if at < cutoff {
			delete(s.sampled, id)
			delete(s.sampledAt, id)
			dropped++
		}
	}
	for id, at := range s.paramsAt {
		if _, stillMarked := s.sampled[id]; stillMarked {
			continue // keeps mark+params paired; both go once the pair ages out
		}
		if at < cutoff {
			for _, spans := range s.params[id] {
				for _, sp := range spans {
					s.storageParams -= int64(sp.Size())
				}
			}
			delete(s.params, id)
			delete(s.paramsAt, id)
			dropped++
		}
	}

	expired := false
	for _, seg := range s.segments {
		if seg.at < cutoff {
			expired = true
			break
		}
	}
	if expired {
		old := s.segments
		s.segments = nil
		s.segIndex = map[uint64][]int{}
		s.patKeys = map[intern.Sym][]uint64{}
		s.liveFilters = map[uint64]int{}
		for _, seg := range old {
			if seg.at < cutoff {
				s.storageBloom -= seg.bytes
				dropped++
				continue
			}
			if seg.live {
				s.liveFilters[intern.Pair(seg.nodeSym, seg.patSym)] = len(s.segments)
			}
			s.addSegment(seg)
		}
	}
	if dropped > 0 {
		s.epoch.Add(1)
	}
	return dropped
}
