package keycom

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// The durable catalogue store. A Store owns one directory:
//
//	snapshot.json — the catalogue state and audit head as of some
//	                committed sequence number (atomically replaced:
//	                tmp + fsync + rename);
//	wal.log       — checksummed frames for every commit past the
//	                snapshot, fsynced before the commit is acknowledged;
//	audit.log     — the append-only hash chain, one line per commit,
//	                never truncated.
//
// Commit protocol (under the store lock): seal the audit record against
// the current chain head, append-and-fsync the WAL frame (which embeds
// the audit record), append-and-fsync the audit line, then apply the
// diff to the in-memory policy and sharded index. A failure between the
// two appends rolls the WAL back to its pre-commit length so the two
// logs never acknowledge different histories; if even the rollback
// fails the store marks itself broken and refuses further commits —
// the invariant "recovered state is exactly the acknowledged history"
// is worth more than availability of a store whose logs diverged.
//
// Recovery (OpenStore) replays that protocol backwards: load the
// snapshot, replay WAL frames past it (truncating a torn tail, refusing
// a corrupt middle), then repair the audit chain — a crash between the
// two fsyncs can cut off at most the audit line of the final WAL frame,
// and that line is reconstructed from the frame itself. Anything the
// chain is missing beyond that one reconstructible suffix is not a
// crash artifact but tampering, and the store refuses to open.

// Store file names within the store directory.
const (
	walFileName   = "wal.log"
	snapFileName  = "snapshot.json"
	auditFileName = "audit.log"
)

// DefaultSnapshotEvery is the commit count between automatic snapshots.
const DefaultSnapshotEvery = 64

// ErrStoreBroken wraps the first unrecoverable log error; every later
// commit is refused until the process restarts and recovery re-anchors.
var ErrStoreBroken = errors.New("keycom: store broken, restart required")

// ErrLogUnusable marks a failed append whose rewind also failed: the log
// file may end in an unacknowledged partial frame, so its owner must
// refuse further appends until recovery re-anchors it.
var ErrLogUnusable = errors.New("log unusable")

// StoreOptions configures OpenStore. The zero value is usable: real
// disk, default snapshot cadence, wall clock, no telemetry.
type StoreOptions struct {
	// FS is the filesystem the store lives on. Nil means the real disk;
	// chaos tests pass a faultfs.MemFS.
	FS faultfs.FS
	// Tel receives WAL and recovery metrics. Nil disables.
	Tel *telemetry.Registry
	// SnapshotEvery is the number of commits between automatic
	// snapshots; 0 means DefaultSnapshotEvery, negative disables
	// automatic snapshots.
	SnapshotEvery int
	// Now supplies audit-record timestamps. Nil means time.Now().Unix.
	Now func() int64
}

// RecoveryInfo reports what OpenStore found and repaired.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number the snapshot covered (0 if no
	// snapshot existed).
	SnapshotSeq uint64
	// Replayed counts WAL records replayed past the snapshot.
	Replayed int
	// TornWALBytes is the length of the discarded torn WAL tail.
	TornWALBytes int64
	// TornAuditBytes is the length of the discarded torn audit tail.
	TornAuditBytes int64
	// AuditRepaired counts audit lines reconstructed from WAL frames.
	AuditRepaired int
}

// Store is a durable, crash-safe catalogue: the rbac rows plus a
// sharded read index, backed by the snapshot + WAL + audit-chain files.
// It is safe for concurrent use.
type Store struct {
	dir       string
	fs        faultfs.FS
	tel       *telemetry.Registry
	snapEvery int
	now       func() int64

	mu        sync.Mutex
	policy    *rbac.Policy
	idx       *shardedIndex
	seq       uint64
	wal       *wal
	audit     *auditLog
	sinceSnap int
	broken    error
	rec       RecoveryInfo
}

// storeSnapshot is the snapshot.json payload.
type storeSnapshot struct {
	Seq       uint64       `json:"seq"`
	AuditHead string       `json:"audit_head"`
	Policy    *rbac.Policy `json:"policy"`
}

// OpenStore opens (creating if absent) the store in dir and recovers it
// to the last acknowledged commit.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	now := opts.Now
	if now == nil {
		now = func() int64 { return time.Now().Unix() }
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("keycom: store dir: %w", err)
	}
	s := &Store{
		dir:       dir,
		fs:        fsys,
		tel:       opts.Tel,
		snapEvery: snapEvery,
		now:       now,
		policy:    rbac.NewPolicy(),
		idx:       newShardedIndex(),
	}
	// A crash mid-snapshot can strand the tmp file; it was never
	// renamed, so it is dead weight.
	tmp := s.path(snapFileName) + ".tmp"
	if _, err := fsys.Stat(tmp); err == nil {
		_ = fsys.Remove(tmp)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// recover loads snapshot + WAL + audit chain into memory, truncating
// torn tails and repairing the reconstructible audit suffix.
func (s *Store) recover() error {
	// 1. Snapshot: the replay base.
	var base uint64
	auditHead := ""
	if data, err := s.fs.ReadFile(s.path(snapFileName)); err == nil {
		var snap storeSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("keycom: snapshot unreadable: %w", err)
		}
		if snap.Policy != nil {
			s.policy = snap.Policy
		}
		base = snap.Seq
		auditHead = snap.AuditHead
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read snapshot: %w", err)
	}
	s.rec.SnapshotSeq = base
	s.seq = base

	// 2. WAL: replay acknowledged frames past the snapshot, cut the
	// torn tail.
	walData, err := s.fs.ReadFile(s.path(walFileName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read wal: %w", err)
	}
	recs, good, err := parseWAL(walData, base)
	if err != nil {
		return err
	}
	s.rec.TornWALBytes = int64(len(walData) - good)
	for _, rec := range recs {
		s.policy.Apply(rec.Diff)
		s.seq = rec.Seq
		auditHead = rec.Audit.Hash
	}
	s.rec.Replayed = len(recs)

	// 3. Audit chain: verify, cut a torn tail, reconstruct the suffix a
	// crash between the WAL fsync and the audit fsync cut off.
	auditData, err := s.fs.ReadFile(s.path(auditFileName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read audit log: %w", err)
	}
	chain, verr := VerifyAuditChain(auditData)
	goodAudit := verifiedAuditLen(auditData, len(chain))
	var lastAudit uint64
	if len(chain) > 0 {
		lastAudit = chain[len(chain)-1].Seq
	}
	if lastAudit > s.seq {
		return fmt.Errorf("%w: audit chain reaches seq %d beyond acknowledged history (seq %d)",
			ErrAuditTampered, lastAudit, s.seq)
	}
	// Cross-check the overlap: every replayed WAL frame whose audit line
	// is present must agree with it.
	for _, rec := range recs {
		if rec.Seq > lastAudit {
			break
		}
		if chain[rec.Seq-chain[0].Seq].Hash != rec.Audit.Hash {
			return fmt.Errorf("%w: audit record %d disagrees with write-ahead log", ErrAuditTampered, rec.Seq)
		}
	}
	// A crash between the WAL fsync and the audit fsync can cut off at
	// most the final commit's line. A chain missing more than that lost
	// acknowledged history: tampering or truncation, not a crash.
	if s.seq > lastAudit+1 {
		if verr != nil {
			return fmt.Errorf("%w: %v", ErrAuditTampered, verr)
		}
		return fmt.Errorf("%w: chain ends at seq %d, acknowledged history at seq %d",
			ErrAuditTruncated, lastAudit, s.seq)
	}
	repairBase := base
	if len(recs) > 0 {
		repairBase = recs[0].Seq - 1
	}
	if lastAudit < repairBase {
		// The missing line's WAL frame was dropped by a snapshot: not a
		// reachable crash state, and not reconstructible.
		return fmt.Errorf("%w: chain ends at seq %d, snapshot covers seq %d", ErrAuditTruncated, lastAudit, repairBase)
	}
	if verr != nil && s.seq == lastAudit {
		// The broken suffix is not explainable as a torn final line the
		// WAL can rebuild — nothing is missing, yet bytes fail to verify.
		return verr
	}
	head := ""
	if len(chain) > 0 {
		head = chain[len(chain)-1].Hash
	}
	s.rec.TornAuditBytes = int64(len(auditData) - goodAudit)

	// 4. Open the logs at their verified lengths and write the repairs.
	if err := s.openLogs(int64(good), int64(goodAudit), head); err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= lastAudit {
			continue
		}
		if rec.Audit.PrevHash != s.audit.head || rec.Audit.chainHash() != rec.Audit.Hash {
			return fmt.Errorf("%w: reconstructed audit record %d does not extend the chain", ErrAuditTampered, rec.Seq)
		}
		a := rec.Audit
		if err := s.audit.append(&a); err != nil {
			return fmt.Errorf("keycom: repair audit chain: %w", err)
		}
		s.rec.AuditRepaired++
	}
	if s.audit.head != auditHead {
		return fmt.Errorf("%w: chain head does not match acknowledged history", ErrAuditTampered)
	}

	s.idx.rebuild(s.policy)
	s.tel.Counter("keycom.store.replayed").Add(int64(s.rec.Replayed))
	s.tel.Counter("keycom.wal.torn.bytes").Add(s.rec.TornWALBytes)
	s.tel.Counter("keycom.audit.repaired").Add(int64(s.rec.AuditRepaired))
	return nil
}

// verifiedAuditLen returns the byte length of the first n non-empty
// lines of data (the verified chain prefix).
func verifiedAuditLen(data []byte, n int) int {
	if n == 0 {
		return 0
	}
	off, seen := 0, 0
	for off < len(data) {
		next := off
		for next < len(data) && data[next] != '\n' {
			next++
		}
		if next < len(data) {
			next++ // include the newline
		}
		if len(strings.TrimSpace(string(data[off:next]))) > 0 {
			seen++
		}
		off = next
		if seen == n {
			return off
		}
	}
	return off
}

// openLogs opens the WAL and audit files for appending, truncating each
// to its verified length first (and fsyncing the cut so a torn tail
// cannot reappear after the next crash).
func (s *Store) openLogs(walLen, auditLen int64, auditHead string) error {
	w, err := openWAL(s.fs, s.path(walFileName), walLen, s.tel, "keycom.wal")
	if err != nil {
		return err
	}
	if err := w.rewind(walLen); err != nil {
		w.close()
		return fmt.Errorf("keycom: truncate torn wal tail: %w", err)
	}
	a, err := openAudit(s.fs, s.path(auditFileName), auditLen, auditHead)
	if err != nil {
		w.close()
		return err
	}
	if err := truncateTo(a.f, auditLen); err != nil {
		w.close()
		a.close()
		return fmt.Errorf("keycom: truncate torn audit tail: %w", err)
	}
	s.wal = w
	s.audit = a
	return nil
}

// rewind truncates the WAL to length n and fsyncs the cut. size is
// updated as soon as the truncate lands, before the fsync: a failed
// fsync leaves the old bytes durable (they can resurface after a
// crash) but the open file — what appends extend — is already cut.
func (w *wal) rewind(n int64) error {
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	w.size = n
	return w.f.Sync()
}

func truncateTo(f faultfs.File, n int64) error {
	if err := f.Truncate(n); err != nil {
		return err
	}
	return f.Sync()
}

// Commit durably applies one authorised diff on behalf of requester and
// returns the commit's sequence number. The commit is acknowledged only
// after the WAL frame and the audit line are both fsynced; on any
// failure before that point the in-memory catalogue is untouched and
// the logs are rolled back to the previous acknowledged commit.
func (s *Store) Commit(requester string, d rbac.Diff) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrStoreBroken, s.broken)
	}
	rec := walRecord{
		Seq:  s.seq + 1,
		Diff: d,
		Audit: AuditRecord{
			Seq:       s.seq + 1,
			Unix:      s.now(),
			Requester: requester,
			Action:    "commit",
			Summary:   strings.TrimSuffix(d.String(), "\n"),
		},
	}
	rec.Audit.seal(s.audit.head)

	preWAL := s.wal.size
	if err := s.wal.append(&rec); err != nil {
		s.breakIfUnusable(err)
		return 0, err
	}
	a := rec.Audit
	if err := s.audit.append(&a); err != nil {
		// The WAL acknowledged a commit the audit log did not: rewind the
		// WAL so the two logs agree before anyone reads them.
		if rerr := s.wal.rewind(preWAL); rerr != nil {
			s.broken = fmt.Errorf("audit append failed (%v) and wal rewind failed (%v)", err, rerr)
			return 0, fmt.Errorf("%w: %v", ErrStoreBroken, s.broken)
		}
		s.breakIfUnusable(err)
		return 0, err
	}

	s.policy.Apply(d)
	s.idx.apply(d)
	s.seq = rec.Seq
	s.sinceSnap++
	if s.snapEvery > 0 && s.sinceSnap >= s.snapEvery {
		if err := s.snapshotLocked(); err != nil {
			// The commit is already acknowledged; a failed snapshot only
			// means the WAL keeps growing until one succeeds.
			s.tel.Counter("keycom.store.snapshot.errors").Inc()
		}
	}
	return rec.Seq, nil
}

// breakIfUnusable marks the store broken when a log rewind failed and
// the file may hold an unacknowledged partial frame.
func (s *Store) breakIfUnusable(err error) {
	if errors.Is(err, ErrLogUnusable) {
		s.broken = err
	}
}

// Snapshot writes the current catalogue to snapshot.json and truncates
// the WAL. Callers need no lock.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return fmt.Errorf("%w: %v", ErrStoreBroken, s.broken)
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	snap := storeSnapshot{Seq: s.seq, AuditHead: s.audit.head, Policy: s.policy}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("keycom: encode snapshot: %w", err)
	}
	tmp := s.path(snapFileName) + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("keycom: snapshot: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("keycom: snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, s.path(snapFileName)); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("keycom: snapshot rename: %w", err)
	}
	// The snapshot now covers every WAL frame; drop them. Failure here is
	// benign: whether the truncate never happened or happened without a
	// durable fsync, any frames that survive a later crash carry
	// seq <= snapshot seq, which replay skips. The WAL just stays fat
	// until the next snapshot's truncate succeeds.
	if err := s.wal.rewind(0); err != nil {
		s.sinceSnap = 0
		return fmt.Errorf("keycom: truncate wal after snapshot: %w", err)
	}
	s.sinceSnap = 0
	s.tel.Counter("keycom.store.snapshots").Inc()
	return nil
}

// Policy returns a snapshot copy of the catalogue.
func (s *Store) Policy() *rbac.Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Clone()
}

// UserHolds answers the composed access-control decision from the
// sharded index without taking the store lock.
func (s *Store) UserHolds(u rbac.User, ot rbac.ObjectType, p rbac.Permission) bool {
	return s.idx.userHolds(u, ot, p)
}

// Seq returns the last acknowledged commit sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// AuditHead returns the audit chain head digest.
func (s *Store) AuditHead() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.audit.head
}

// RecoveryInfo reports what OpenStore found and repaired.
func (s *Store) RecoveryInfo() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Close closes the log files. Every acknowledged commit is already
// durable, so Close flushes nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.wal != nil {
		if err := s.wal.close(); err != nil {
			first = err
		}
	}
	if s.audit != nil {
		if err := s.audit.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
