package keycom

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// The write-ahead log: every committed catalogue update is appended as
// one length-prefixed, checksummed frame and fsynced before the commit
// is acknowledged. Frame layout:
//
//	[4 bytes big-endian payload length][4 bytes CRC32C of payload][payload]
//
// The payload is the JSON walRecord. Recovery reads frames
// sequentially; the first frame whose header is short, whose length is
// implausible, whose checksum fails, or whose payload does not decode
// marks the torn tail — everything from that offset is truncated, never
// loaded. A checksum-valid record whose sequence number breaks
// contiguity is not a torn tail but corruption in the middle of
// acknowledged history, and opening the store fails loudly instead.

// maxWALRecord bounds a frame's declared payload length so a garbage
// header cannot drive a huge allocation.
const maxWALRecord = 16 << 20

// walHeaderSize is the frame header: length + checksum.
const walHeaderSize = 8

// ErrWALCorrupt reports checksum-valid but semantically impossible WAL
// content (sequence gaps, duplicate sequence numbers): acknowledged
// history has been altered, and the store refuses to open.
var ErrWALCorrupt = errors.New("keycom: write-ahead log corrupt")

// walRecord is one committed update. It embeds the full audit record
// for the commit so recovery can re-append an audit line the crash cut
// off between the WAL fsync and the audit fsync.
type walRecord struct {
	Seq   uint64      `json:"seq"`
	Diff  rbac.Diff   `json:"diff"`
	Audit AuditRecord `json:"audit"`
}

// encodeWALRecord renders the frame for one record.
func encodeWALRecord(rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("keycom: encode wal record: %w", err)
	}
	return encodeFrame(payload), nil
}

// encodeFrame wraps one payload in the length + checksum header shared
// by every keycom log (the catalogue WAL and the key-vault WAL).
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[walHeaderSize:], payload)
	return frame
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// scanFrames walks the checksum-valid frame prefix of data, handing
// each payload to fn, and returns the byte length of the good prefix.
// The scan ends at the first short header, implausible length, checksum
// failure, or fn returning false — the torn tail the caller truncates.
func scanFrames(data []byte, fn func(payload []byte) bool) (good int) {
	off := 0
	for {
		if len(data)-off < walHeaderSize {
			return off
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxWALRecord || len(data)-off-walHeaderSize < n {
			return off
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return off
		}
		if !fn(payload) {
			return off
		}
		off += walHeaderSize + n
	}
}

// tornTailIsFinal reports whether the bytes past a log's good prefix
// are explainable as one torn final append. Appends are sequential and
// fsynced one frame at a time, so a crash damages at most the last
// frame; if the bad frame's declared length is plausible and skipping
// it reveals another checksum-valid frame, the damage sits in the
// middle of acknowledged history — corruption, not a crash artifact.
func tornTailIsFinal(tail []byte) bool {
	if len(tail) < walHeaderSize {
		return true
	}
	n := int(binary.BigEndian.Uint32(tail[0:4]))
	if n == 0 || n > maxWALRecord || len(tail)-walHeaderSize < n {
		return true
	}
	valid := false
	scanFrames(tail[walHeaderSize+n:], func([]byte) bool {
		valid = true
		return false
	})
	return !valid
}

// parseWAL decodes frames from data. It returns the decoded records and
// the byte length of the good prefix; bytes past good are a torn tail
// the caller should truncate. A contiguity violation among
// checksum-valid records returns ErrWALCorrupt. firstSeq is the
// sequence number the first record above base must carry (base+1);
// records with Seq <= base are skipped as pre-snapshot history.
func parseWAL(data []byte, base uint64) (recs []walRecord, good int, err error) {
	last := base
	good = scanFrames(data, func(payload []byte) bool {
		var rec walRecord
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		if rec.Seq <= base {
			// Pre-snapshot history awaiting truncation: skip, but it
			// still has to be internally contiguous ground we walked on.
			return true
		}
		if rec.Seq != last+1 {
			err = fmt.Errorf("%w: record seq %d after %d", ErrWALCorrupt, rec.Seq, last)
			return false
		}
		last = rec.Seq
		recs = append(recs, rec)
		return true
	})
	return recs, good, err
}

// wal is the open write-ahead log file.
type wal struct {
	fs     faultfs.FS
	path   string
	f      faultfs.File
	size   int64 // bytes of fully acknowledged frames
	tel    *telemetry.Registry
	metric string // counter prefix, e.g. "keycom.wal"
}

// openWAL opens (creating if absent) the log for appending. size must
// be the good-prefix length recovery established; metric prefixes the
// append/fsync counters so the catalogue WAL and the key-vault WAL
// report separately.
func openWAL(fsys faultfs.FS, path string, size int64, tel *telemetry.Registry, metric string) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("keycom: open wal: %w", err)
	}
	return &wal{fs: fsys, path: path, f: f, size: size, tel: tel, metric: metric}, nil
}

// append writes and fsyncs one record. On failure it rewinds the file
// to the last acknowledged frame so a partial frame cannot poison later
// appends; if even the rewind fails the error is wrapped and the caller
// must treat the log as unusable.
func (w *wal) append(rec *walRecord) error {
	frame, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	return w.appendFrame(frame)
}

// appendFrame writes and fsyncs one pre-encoded frame under the same
// rewind-on-failure contract as append.
func (w *wal) appendFrame(frame []byte) error {
	start := time.Now()
	_, werr := w.f.Write(frame)
	if werr == nil {
		werr = w.f.Sync()
	}
	if werr != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			return fmt.Errorf("keycom: wal append failed (%w) and rewind failed (%v): %w", werr, terr, ErrLogUnusable)
		}
		return fmt.Errorf("keycom: wal append: %w", werr)
	}
	w.size += int64(len(frame))
	w.tel.Counter(w.metric + ".appends").Inc()
	w.tel.Counter(w.metric + ".fsyncs").Inc()
	w.tel.Histogram(w.metric + ".fsync.latency").ObserveDuration(time.Since(start))
	return nil
}

// close closes the underlying file. Every acknowledged frame is already
// fsynced, so close has nothing left to flush.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
