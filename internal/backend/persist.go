package backend

// The durable storage engine: one snapshot and one write-ahead log per
// store, TTL retention, and size-triggered compaction.
//
// On-disk layout under PersistConfig.Dir:
//
//	store.snap  versioned snapshot of every shard (written atomically)
//	store.wal   mutations accepted since that snapshot
//
// The shard count is an in-memory detail that never reaches the disk.
// Recovery replays the snapshot and then the WAL through the same apply
// path live mutations take, and that path routes every record through the
// shard router, so a directory written with any shard count opens under any
// other. A torn or corrupt WAL tail (the expected residue of a crash
// mid-append) is truncated at the last intact record.
//
// Generations make recovery crash-consistent. Compaction bumps the store's
// generation, makes the new snapshot durable under it, and only then resets
// the WAL to the same generation. A WAL older than its snapshot is the
// residue of a crash inside that window; its records are already in the
// snapshot, so open discards it instead of replaying records twice. A WAL
// newer than its snapshot follows a snapshot that is missing, and open
// refuses the directory rather than drop what that snapshot held.
//
// Lock order: shard locks in ascending index order, then the WAL's lock. An
// append runs under the lock of the one shard it mutates and then takes the
// WAL's lock, so the log order of any key's records matches the order of
// their applies. Compaction takes every shard lock and then the WAL's lock.
// An append that pushes the WAL past the threshold only marks a compaction
// due; the public mutation entry points run it once their shard lock is
// released.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intern"
	"repro/internal/telemetry"
)

// DefaultSnapshotEveryBytes is the per-shard WAL allowance that triggers a
// compaction when PersistConfig.SnapshotEveryBytes is zero.
const DefaultSnapshotEveryBytes = 4 << 20

// sweepInterval is the cadence of the background retention/flush loop.
const sweepInterval = time.Minute

// The two files of a data directory.
const (
	snapName = "store.snap"
	walName  = "store.wal"
)

// PersistConfig configures the durable storage engine attached by
// OpenPersistence. Zero values take the package defaults.
type PersistConfig struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// RetentionTTL drops Bloom segments, sampled marks and parameters older
	// than this age (pattern libraries are kept forever — they are the tiny,
	// deduplicated commonality). 0 keeps everything forever.
	RetentionTTL time.Duration
	// SnapshotEveryBytes is the WAL allowance per shard: the store's
	// snapshot is rewritten and its WAL reset once the WAL exceeds this size
	// times the shard count. 0 takes DefaultSnapshotEveryBytes.
	SnapshotEveryBytes int64
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

// walFile is the append-side WAL state. Appends hold the lock of the shard
// they mutate, so mu orders appends from different shards and arbitrates
// them against the background flush loop and compaction.
type walFile struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	bytes int64 // record bytes since the last snapshot (header excluded)
	// nextCompact is the bytes level that marks the next compaction due. It
	// is advanced at each mark, so a failing compaction (disk full) backs
	// off for another threshold's worth of records instead of re-encoding
	// the whole store after every subsequent append.
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

// persister is the attached storage engine: the WAL, the store's
// generation, the sticky first I/O error and the background loop's
// lifecycle.
type persister struct {
	dir       string
	threshold int64
	wal       walFile
	// gen is the generation of the snapshot and of the WAL's header. It is
	// written only under every shard lock and wal.mu, so holding wal.mu
	// suffices to read it.
	gen uint64
	// compactDue is set by the append that pushes the WAL past threshold;
	// compactIfDue runs the compaction once the appender's shard lock is
	// released.
	compactDue atomic.Bool

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

// OpenPersistence attaches the durable storage engine: an existing
// snapshot and WAL under cfg.Dir are replayed into the (expected-empty)
// store, a torn WAL tail is truncated, and from then on every mutation is
// logged to the WAL. Call before serving traffic; it is not synchronized
// with concurrent use. The engine is detached by ClosePersistence.
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
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	// Format 3 and older kept one snapshot and one WAL per shard, committed
	// by a MANIFEST. There is no reader for them.
	if _, err := os.Lstat(filepath.Join(cfg.Dir, "MANIFEST")); err == nil {
		return fmt.Errorf("%w: %s holds a MANIFEST, the per-shard layout of format 3 or older (want %d)", ErrBadSnapshot, cfg.Dir, snapshotVersion)
	}
	snapPath := filepath.Join(cfg.Dir, snapName)
	walPath := filepath.Join(cfg.Dir, walName)

	var gen uint64
	if data, err := os.ReadFile(snapPath); err == nil {
		if gen, err = b.loadSnapshot(data); err != nil {
			return fmt.Errorf("replaying %s: %w", snapPath, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := os.ReadFile(walPath)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return err
	}
	// keep is the verified WAL prefix. It stays 0 — recover to an empty log
	// — for a short or foreign header, and for a WAL older than the
	// snapshot: a crash between compaction's snapshot rename and WAL reset,
	// whose records are all in the snapshot. A whole WAL header of another
	// format version is refused like a snapshot of one, before the file is
	// touched.
	keep := int64(0)
	walGen, hdrErr := checkHeader(data, walMagic)
	if hdrErr != nil && len(data) >= fileHeaderLen && bytes.HasPrefix(data, walMagic[:]) {
		return fmt.Errorf("replaying %s: %w", walPath, hdrErr)
	}
	if hdrErr == nil {
		if walGen > gen {
			return fmt.Errorf("%w: %s is generation %d but %s is generation %d: the snapshot it follows is missing",
				ErrBadSnapshot, walPath, walGen, snapPath, gen)
		}
		if walGen == gen {
			consumed, err := scanRecords(data[fileHeaderLen:], b.applyRecord)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", walPath, err)
			}
			keep = int64(fileHeaderLen + consumed)
		}
	}

	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if fresh {
		err = fsyncDir(cfg.Dir)
	}
	if err == nil {
		err = f.Truncate(keep)
	}
	if err == nil {
		_, err = f.Seek(keep, 0)
	}
	if err != nil {
		f.Close()
		return err
	}
	// The residue of a compaction that crashed before its rename.
	os.Remove(snapPath + ".tmp")

	// A compaction rewrites every shard, so the threshold grows with the
	// shard count: snapshot bytes written per WAL byte do not depend on how
	// finely the store is locked.
	threshold := cfg.SnapshotEveryBytes * int64(len(b.shards))
	if threshold/int64(len(b.shards)) != cfg.SnapshotEveryBytes {
		threshold = math.MaxInt64
	}
	p := &persister{
		dir:       cfg.Dir,
		threshold: threshold,
		gen:       gen,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		walAppend: b.tel.Histogram("mint_wal_append_seconds", "",
			"WAL record append latency (group buffering)."),
		walFlush: b.tel.Histogram("mint_wal_flush_seconds", "",
			"WAL group-commit flush latency: seal + buffered write + fsync."),
		slow: b.slow,
	}
	w := &p.wal
	w.f, w.w, w.nextCompact = f, bufio.NewWriter(f), p.threshold
	if keep == 0 {
		w.w.Write(fileHeader(walMagic, gen))
	} else {
		w.bytes = keep - fileHeaderLen
	}
	b.persist = p
	b.retentionTTL = int64(cfg.RetentionTTL)
	if cfg.RetentionTTL > 0 {
		b.SweepExpired()
	}
	go b.retentionLoop(p, cfg.RetentionTTL > 0)
	return nil
}

// retentionLoop is the background duty cycle: apply TTL retention and push
// the WAL buffer to disk so the durability lag is bounded by the interval.
func (b *Backend) retentionLoop(p *persister, sweep bool) {
	defer close(p.done)
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if sweep {
				b.SweepExpired()
			}
			p.flush(true)
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

// logLocked appends one record to the WAL's pending group and marks a
// compaction due when the WAL has outgrown the snapshot threshold. The
// payload is encoded by enc straight into the WAL's reused scratch buffer —
// no per-record allocation. The caller holds the lock of shard idx, the
// shard the record mutates — which is what guarantees the WAL's record
// order matches the order mutations were applied; idx only labels the
// slow-op ledger entry.
func (p *persister) logLocked(idx int, typ byte, at int64, enc func(dst []byte) []byte) {
	start := time.Now()
	p.logLockedTimed(typ, at, enc)
	d := time.Since(start)
	p.walAppend.Observe(d)
	if p.slow.Exceeds(d) {
		p.slow.Record("wal-append", "", d, 0, idx)
	}
}

func (p *persister) logLockedTimed(typ byte, at int64, enc func(dst []byte) []byte) {
	w := &p.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.needsReset {
		// The WAL's generation is behind its snapshot's (a failed reset
		// after a successful compaction). Recovery discards such a log, so
		// writing into it would only pretend durability: retry the reset
		// first, and on failure drop the record with the error latched —
		// the mutation stays correct in memory either way.
		if err := p.resetWALLocked(w, p.gen); err != nil {
			p.setErr(err)
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
	if w.groupN >= walGroupRecords || len(w.group) >= walGroupBytes {
		p.setErr(p.sealGroupLocked(w))
	}
	if p.threshold > 0 && w.bytes >= w.nextCompact {
		w.nextCompact = w.bytes + p.threshold // back off if the attempt fails
		p.compactDue.Store(true)
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

// compactIfDue runs the compaction an append marked due. The public
// mutation entry points call it after their apply has released its shard
// lock; of the callers that see the mark, one wins it and compacts.
func (b *Backend) compactIfDue() {
	if p := b.persist; p != nil && p.compactDue.Load() && p.compactDue.CompareAndSwap(true, false) {
		b.Compact() // an I/O error is latched; FlushPersistence reports it
	}
}

// Compact rewrites the snapshot from live state under a bumped generation
// and resets the WAL to that generation — the explicit form of what the
// engine does when the WAL outgrows its threshold. It holds every
// shard lock, so writers and queries stall for the encode and two fsyncs.
// That stall is the price of the crash-safety ordering: the new snapshot
// must be durable (temp file + fsync + rename + directory fsync) before the
// WAL it subsumes is dropped, and moving the write off the locks would need
// a second, rotated log. SnapshotEveryBytes bounds how often it runs. If
// the post-rename WAL reset fails, the log is marked needsReset so no append
// lands in a file recovery would discard. A no-op without persistence
// attached.
func (b *Backend) Compact() error {
	p := b.persist
	if p == nil {
		return nil
	}
	for _, s := range b.shards {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	w := &p.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := p.gen + 1
	buf := fileHeader(snapMagic, gen)
	for _, s := range b.shards {
		buf = appendShardSnapshot(buf, s)
	}
	final := filepath.Join(p.dir, snapName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		p.setErr(err)
		return p.firstErr()
	}
	if err := renameSync(tmp, final); err != nil {
		p.setErr(err)
		return p.firstErr()
	}
	p.gen = gen
	p.setErr(p.resetWALLocked(w, gen))
	return p.firstErr()
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

// flush seals the WAL's pending group and pushes the buffer to the
// operating system, and with fsync on to durable storage. Returns the
// engine's first I/O error, if any.
func (p *persister) flush(fsync bool) error {
	start := time.Now()
	w := &p.wal
	w.mu.Lock()
	err := p.sealGroupLocked(w)
	if err == nil {
		err = w.w.Flush()
	}
	if err == nil && fsync {
		err = w.f.Sync()
	}
	w.mu.Unlock()
	p.setErr(err)
	d := time.Since(start)
	p.walFlush.Observe(d)
	if p.slow.Exceeds(d) {
		kind := "sync"
		if fsync {
			kind = "fsync"
		}
		p.slow.Record("wal-flush", kind, d, 0, -1)
	}
	return p.firstErr()
}

// FlushPersistence forces the WAL buffer to durable storage. A query
// answered after FlushPersistence returns is answerable again after a
// crash and reopen. Returns the engine's first I/O error, if any; a no-op
// without persistence attached.
func (b *Backend) FlushPersistence() error {
	p := b.persist
	if p == nil {
		return nil
	}
	return p.flush(true)
}

// SyncWAL seals the pending WAL group and pushes the buffered records to
// the operating system — no fsync. It is the acknowledgement point of the
// remote ingest path: once SyncWAL returns, the acknowledged records
// survive a crash of this process (the page cache outlives it), though not
// a host power loss — that stronger point is FlushPersistence, which the
// client's durable flush and the daemon's shutdown path call. Returns the
// engine's first I/O error, if any; a no-op without persistence attached.
func (b *Backend) SyncWAL() error {
	p := b.persist
	if p == nil {
		return nil
	}
	return p.flush(false)
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

// ClosePersistence stops the retention loop, flushes and closes the WAL,
// and detaches the engine (later mutations stay memory-only). Safe to call
// without persistence attached; must not race with concurrent writes.
// Returns the engine's first I/O error, if any.
func (b *Backend) ClosePersistence() error {
	p := b.persist
	if p == nil {
		return nil
	}
	close(p.stop)
	<-p.done
	p.flush(true)
	p.setErr(p.wal.f.Close())
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
