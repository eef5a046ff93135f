package backend

// The snapshot/WAL record codec of the durable storage engine (persist.go).
//
// Both file kinds share one record stream format so a snapshot is literally
// a compacted WAL: the replay path that recovers the store from its
// snapshot is the same code that recovers the mutations logged after it.
//
// Every record is framed as
//
//	[4-byte LE body length][body][4-byte LE CRC-32 (IEEE) of body]
//	body = [1-byte record type][varint timestamp (UnixNano)][payload]
//
// and every file starts with an 8-byte magic, a 4-byte LE format version
// and an 8-byte LE store generation. Payloads are the wire package's
// canonical binary encodings of the corresponding report messages
// (wire/codec.go), so the storage format is the wire format at rest. The
// CRC-per-record framing is what makes torn tails recoverable: a crashed
// append leaves a record whose length or checksum cannot verify, and
// replay truncates the log at the last record that does.
//
// The generation makes snapshot+WAL replay crash-consistent: compaction
// bumps the store's generation, writes the new snapshot under it, and only
// then resets the WAL to the same generation. A crash in between leaves a
// WAL whose generation is older than its snapshot's; every record in it is
// already contained in that snapshot, so open discards it instead of
// double-applying.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/parser"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Record types of the snapshot/WAL stream. Values are part of the on-disk
// format; never renumber.
const (
	recSpanPattern = byte(1) // payload: wire.MarshalSpanPattern
	recTopoPattern = byte(2) // payload: wire.MarshalTopoPattern
	recBloom       = byte(3) // payload: wire.MarshalBloomReport
	recParams      = byte(4) // payload: wire.MarshalParamsReport
	recMark        = byte(5) // payload: marshalMark
	// recGroup is a WAL group commit: N records under one frame and one
	// CRC. Its payload is a sequence of [uvarint bodyLen][body] entries,
	// each body laid out exactly like an outer record body ([type][varint
	// timestamp][payload]); groups never nest. A torn or corrupt group
	// drops as one unit, which preserves the prefix-durability contract —
	// records are only ever lost from the tail.
	recGroup = byte(6)
)

// snapshotVersion is the current on-disk format version, checked on open.
// Version 3 changed what a recBloom record that is not Full means: a delta
// merged into the pair's live segment, where version 2 replaced that segment
// with it. Version 4 replaced the per-shard snapshot and WAL files and their
// MANIFEST with one store.snap and one store.wal.
const snapshotVersion = 4

var (
	snapMagic = [8]byte{'M', 'I', 'N', 'T', 'S', 'N', 'A', 'P'}
	walMagic  = [8]byte{'M', 'I', 'N', 'T', 'W', 'A', 'L', '1'}
)

// fileHeaderLen is the byte length of the magic + version + generation
// prefix shared by snapshot and WAL files.
const fileHeaderLen = 20

// ErrBadSnapshot reports a snapshot file that cannot be read: wrong magic,
// unsupported version, or a corrupt record. Snapshots are written atomically
// (temp file + rename), so unlike a WAL tail this is never expected and open
// fails loudly instead of dropping data silently.
var ErrBadSnapshot = errors.New("backend: corrupt or unsupported snapshot")

// fileHeader renders the magic + version + generation prefix for one file
// kind.
func fileHeader(magic [8]byte, gen uint64) []byte {
	h := make([]byte, fileHeaderLen)
	copy(h, magic[:])
	binary.LittleEndian.PutUint32(h[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(h[12:], gen)
	return h
}

// checkHeader verifies a file's magic and version prefix and returns its
// store generation.
func checkHeader(data []byte, magic [8]byte) (gen uint64, err error) {
	if len(data) < fileHeaderLen {
		return 0, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	for i, c := range magic {
		if data[i] != c {
			return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
		}
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshotVersion {
		return 0, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, v, snapshotVersion)
	}
	return binary.LittleEndian.Uint64(data[12:]), nil
}

// appendRecord frames one record onto b, building the body in place (no
// intermediate buffer) and checksumming the appended region. payload must
// not alias b.
func appendRecord(b []byte, typ byte, at int64, payload []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0) // length, patched below
	b = append(b, typ)
	b = binary.AppendVarint(b, at)
	b = append(b, payload...)
	body := b[start+4:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
}

// maxRecordBytes bounds a single record frame; a length prefix beyond it is
// treated as corruption rather than attempted as an allocation.
const maxRecordBytes = 64 << 20

// scanRecords walks the framed records in data, invoking fn for each intact
// one. It returns the number of bytes consumed by intact records: on a
// clean stream that is len(data), on a torn or corrupt stream it is the
// offset of the first bad frame (where a WAL should be truncated). fn errors
// abort the scan and are returned as-is alongside the bytes consumed so far.
func scanRecords(data []byte, fn func(typ byte, at int64, payload []byte) error) (int, error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			return off, nil // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 1 || n > maxRecordBytes || len(rest) < 4+n+4 {
			return off, nil // torn or corrupt frame
		}
		body := rest[4 : 4+n]
		crc := binary.LittleEndian.Uint32(rest[4+n:])
		if crc32.ChecksumIEEE(body) != crc {
			return off, nil // corrupt body
		}
		at, vn := binary.Varint(body[1:])
		if vn <= 0 {
			return off, nil // corrupt timestamp
		}
		if err := fn(body[0], at, body[1+vn:n]); err != nil {
			return off, err
		}
		off += 4 + n + 4
	}
	return off, nil
}

// appendMark appends a MarkSampled mutation (trace ID + reason) to dst.
func appendMark(dst []byte, traceID, reason string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(traceID)))
	dst = append(dst, traceID...)
	dst = binary.AppendUvarint(dst, uint64(len(reason)))
	return append(dst, reason...)
}

// marshalMark encodes a MarkSampled mutation (trace ID + reason).
func marshalMark(traceID, reason string) []byte {
	return appendMark(nil, traceID, reason)
}

// unmarshalMark decodes a payload written by marshalMark.
func unmarshalMark(payload []byte) (traceID, reason string, err error) {
	read := func() (string, bool) {
		n, vn := binary.Uvarint(payload)
		if vn <= 0 || uint64(len(payload)-vn) < n {
			return "", false
		}
		s := string(payload[vn : vn+int(n)])
		payload = payload[vn+int(n):]
		return s, true
	}
	t, ok1 := read()
	r, ok2 := read()
	if !ok1 || !ok2 || len(payload) != 0 {
		return "", "", fmt.Errorf("%w: mark record", wire.ErrCodec)
	}
	return t, r, nil
}

// applyRecord replays one decoded record into the store through the same
// apply path live mutations take, with logging suppressed and the recorded
// timestamp preserved (so TTL retention of replayed data stays correct).
func (b *Backend) applyRecord(typ byte, at int64, payload []byte) error {
	switch typ {
	case recSpanPattern:
		p, err := wire.UnmarshalSpanPattern(payload)
		if err != nil {
			return err
		}
		b.applySpanPattern(p, at, false)
	case recTopoPattern:
		p, err := wire.UnmarshalTopoPattern(payload)
		if err != nil {
			return err
		}
		b.applyTopoPattern(p, at, false)
	case recBloom:
		r, err := wire.UnmarshalBloomReport(payload)
		if err != nil {
			return err
		}
		b.applyBloom(r.Node, r.PatternID, r.Filter, r.Full, at, false)
	case recParams:
		r, err := wire.UnmarshalParamsReport(payload)
		if err != nil {
			return err
		}
		b.applyParams(r, at, false)
	case recMark:
		traceID, reason, err := unmarshalMark(payload)
		if err != nil {
			return err
		}
		b.applyMark(traceID, reason, at, false)
	case recGroup:
		return b.applyGroup(payload)
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrBadSnapshot, typ)
	}
	return nil
}

// applyGroup replays the inner records of a group-commit frame. The group's
// CRC already verified, so a malformed inner record is corruption, not a
// torn tail.
func (b *Backend) applyGroup(payload []byte) error {
	for off := 0; off < len(payload); {
		n, vn := binary.Uvarint(payload[off:])
		if vn <= 0 || n < 1 || uint64(len(payload)-off-vn) < n {
			return fmt.Errorf("%w: malformed group entry", ErrBadSnapshot)
		}
		body := payload[off+vn : off+vn+int(n)]
		if body[0] == recGroup {
			return fmt.Errorf("%w: nested group record", ErrBadSnapshot)
		}
		at, avn := binary.Varint(body[1:])
		if avn <= 0 {
			return fmt.Errorf("%w: malformed group timestamp", ErrBadSnapshot)
		}
		if err := b.applyRecord(body[0], at, body[1+avn:]); err != nil {
			return err
		}
		off += vn + int(n)
	}
	return nil
}

// appendShardSnapshot appends a shard's full state to out as a record
// stream — the compaction of everything the WAL would replay to for that
// shard. Iteration is sorted so identical state always produces identical
// bytes. Caller holds s.mu.
func appendShardSnapshot(out []byte, s *shard) []byte {

	spanPats := make([]*parser.SpanPattern, 0, len(s.spanPatterns))
	for _, p := range s.spanPatterns {
		spanPats = append(spanPats, p)
	}
	sort.Slice(spanPats, func(i, j int) bool { return spanPats[i].ID < spanPats[j].ID })
	for _, p := range spanPats {
		out = appendRecord(out, recSpanPattern, 0, wire.MarshalSpanPattern(p))
	}

	topoPats := make([]*topo.Pattern, 0, len(s.topoPatterns))
	for _, p := range s.topoPatterns {
		topoPats = append(topoPats, p)
	}
	sort.Slice(topoPats, func(i, j int) bool { return topoPats[i].ID < topoPats[j].ID })
	for _, p := range topoPats {
		out = appendRecord(out, recTopoPattern, 0, wire.MarshalTopoPattern(p))
	}

	// Segments keep slice order (replay re-appends them identically). A
	// pair's live segment is re-encoded as a periodic report: it is the last
	// of its pair's segments, so replay finds no live segment to merge it
	// into, starts one from it, and later deltas keep merging there.
	for _, seg := range s.segments {
		rep := &wire.BloomReport{Node: seg.node, PatternID: seg.patternID, Filter: seg.filter, Full: !seg.live}
		out = appendRecord(out, recBloom, seg.at, wire.MarshalBloomReport(rep))
	}

	traceIDs := make([]string, 0, len(s.params))
	for id := range s.params {
		traceIDs = append(traceIDs, id)
	}
	sort.Strings(traceIDs)
	for _, id := range traceIDs {
		byNode := s.params[id]
		nodes := make([]string, 0, len(byNode))
		for n := range byNode {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			rep := &wire.ParamsReport{Node: n, TraceID: id, Spans: byNode[n]}
			out = appendRecord(out, recParams, s.paramsAt[id], wire.MarshalParamsReport(rep))
		}
	}

	markIDs := make([]string, 0, len(s.sampled))
	for id := range s.sampled {
		markIDs = append(markIDs, id)
	}
	sort.Strings(markIDs)
	for _, id := range markIDs {
		out = appendRecord(out, recMark, s.sampledAt[id], marshalMark(id, s.sampled[id]))
	}
	return out
}

// loadSnapshot replays a snapshot file's record stream into the store and
// returns the store generation it was written under. Unlike a WAL, a
// snapshot must decode completely.
func (b *Backend) loadSnapshot(data []byte) (gen uint64, err error) {
	gen, err = checkHeader(data, snapMagic)
	if err != nil {
		return 0, err
	}
	body := data[fileHeaderLen:]
	consumed, err := scanRecords(body, b.applyRecord)
	if err != nil {
		return 0, err
	}
	if consumed != len(body) {
		return 0, fmt.Errorf("%w: torn record at offset %d", ErrBadSnapshot, fileHeaderLen+consumed)
	}
	return gen, nil
}
