package keycom

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"securewebcom/internal/faultfs"
)

// The tamper-evident audit log: one JSON line per committed update,
// each record binding the previous record's digest. The chain makes
// every alteration detectable:
//
//   - editing a record breaks its own digest;
//   - removing or reordering records breaks the prev-hash links;
//   - truncating the tail leaves a head that no longer matches the
//     digest the write-ahead log (which is the durability anchor)
//     recorded for the last acknowledged commit.
//
// The log is append-only forever — snapshots truncate the WAL, never
// the audit chain — so a verified chain always runs from the first
// commit the store ever acknowledged.

// AuditRecord is one link of the hash chain.
type AuditRecord struct {
	// Seq is the commit sequence number, contiguous from 1.
	Seq uint64 `json:"seq"`
	// Unix is the commit wall-clock second (StoreOptions.Now).
	Unix int64 `json:"unix"`
	// Requester is the principal whose signed request committed.
	Requester string `json:"requester"`
	// Action classifies the entry (currently always "commit").
	Action string `json:"action"`
	// Summary is the human-readable row-level change set.
	Summary string `json:"summary"`
	// PrevHash is the previous record's Hash ("" for the first record).
	PrevHash string `json:"prev_hash"`
	// Hash is the record's own digest: sha256 over the canonical JSON
	// of the record with Hash empty — so it covers PrevHash and thereby
	// the whole chain prefix.
	Hash string `json:"hash"`
}

// chainHash computes the record's digest from its other fields.
func (r *AuditRecord) chainHash() string {
	cp := *r
	cp.Hash = ""
	payload, err := json.Marshal(&cp)
	if err != nil {
		// All fields are plain data; Marshal cannot fail.
		panic(fmt.Sprintf("keycom: marshal audit record: %v", err))
	}
	sum := sha256.Sum256(append([]byte("keycom-audit|"), payload...))
	return hex.EncodeToString(sum[:])
}

// seal fills PrevHash and Hash, linking the record after prev.
func (r *AuditRecord) seal(prevHash string) {
	r.PrevHash = prevHash
	r.Hash = r.chainHash()
}

// Errors reported by chain verification.
var (
	// ErrAuditTampered reports a record whose digest or link is wrong:
	// the chain's content was altered.
	ErrAuditTampered = errors.New("keycom: audit chain tampered")
	// ErrAuditTruncated reports a chain that verifies internally but
	// stops short of the head the WAL or snapshot anchors.
	ErrAuditTruncated = errors.New("keycom: audit chain truncated")
)

// VerifyAuditChain checks every line of an audit log: per-record
// digests, prev-hash links and sequence contiguity from 1. It returns
// the verified records; on failure it returns the records verified so
// far and an ErrAuditTampered-wrapped description of the first break.
func VerifyAuditChain(data []byte) ([]AuditRecord, error) {
	var out []AuditRecord
	prevHash := ""
	var prevSeq uint64
	for lineNo, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec AuditRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return out, fmt.Errorf("%w: line %d unreadable: %v", ErrAuditTampered, lineNo+1, err)
		}
		if rec.Seq != prevSeq+1 {
			return out, fmt.Errorf("%w: line %d seq %d after %d", ErrAuditTampered, lineNo+1, rec.Seq, prevSeq)
		}
		if rec.PrevHash != prevHash {
			return out, fmt.Errorf("%w: line %d prev-hash link broken", ErrAuditTampered, lineNo+1)
		}
		if rec.chainHash() != rec.Hash {
			return out, fmt.Errorf("%w: line %d digest mismatch", ErrAuditTampered, lineNo+1)
		}
		prevHash = rec.Hash
		prevSeq = rec.Seq
		out = append(out, rec)
	}
	return out, nil
}

// VerifyStoreAudit verifies the audit chain of the store in dir without
// opening (or repairing) the store: a read-only check an operator — or
// `policytool audit verify` — can run against a live or crashed store.
// Beyond the chain's internal consistency it cross-references the two
// durability anchors, which detect what the chain alone cannot:
//
//   - the snapshot records the chain head as of its sequence number, so
//     a chain cut below the snapshot point (self-consistent, but short)
//     is caught;
//   - every WAL frame embeds its commit's audit record, so the chain
//     must reach at least one short of the WAL head (a crash can cut
//     exactly the final line, which recovery rebuilds) and must match
//     the embedded digests hash for hash.
//
// fsys nil means the real disk. It returns the verified records.
func VerifyStoreAudit(fsys faultfs.FS, dir string) ([]AuditRecord, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	readIfPresent := func(name string) ([]byte, error) {
		data, err := fsys.ReadFile(dir + "/" + name)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, nil
			}
			return nil, err
		}
		return data, nil
	}
	auditData, err := readIfPresent(auditFileName)
	if err != nil {
		return nil, err
	}
	chain, err := VerifyAuditChain(auditData)
	if err != nil {
		return chain, err
	}
	var snapSeq uint64
	snapData, err := readIfPresent(snapFileName)
	if err != nil {
		return chain, err
	}
	if len(snapData) > 0 {
		var snap storeSnapshot
		if err := json.Unmarshal(snapData, &snap); err != nil {
			return chain, fmt.Errorf("keycom: snapshot unreadable: %w", err)
		}
		snapSeq = snap.Seq
		if uint64(len(chain)) < snapSeq {
			return chain, fmt.Errorf("%w: chain has %d records, snapshot anchors seq %d",
				ErrAuditTruncated, len(chain), snapSeq)
		}
		if snapSeq >= 1 && chain[snapSeq-1].Hash != snap.AuditHead {
			return chain, fmt.Errorf("%w: chain head at seq %d does not match the snapshot anchor",
				ErrAuditTampered, snapSeq)
		}
	}
	walData, err := readIfPresent(walFileName)
	if err != nil {
		return chain, err
	}
	recs, _, werr := parseWAL(walData, snapSeq)
	if werr != nil {
		return chain, werr
	}
	walHead := snapSeq
	if len(recs) > 0 {
		walHead = recs[len(recs)-1].Seq
	}
	if uint64(len(chain))+1 < walHead {
		return chain, fmt.Errorf("%w: chain has %d records, wal anchors seq %d",
			ErrAuditTruncated, len(chain), walHead)
	}
	for _, r := range recs {
		if r.Seq <= uint64(len(chain)) && chain[r.Seq-1].Hash != r.Audit.Hash {
			return chain, fmt.Errorf("%w: record %d does not match the wal's embedded digest",
				ErrAuditTampered, r.Seq)
		}
	}
	return chain, nil
}

// auditLog is the open append-only chain file.
type auditLog struct {
	f    faultfs.File
	size int64 // bytes of acknowledged records
	head string
}

// openAudit opens (creating if absent) the audit log for appending.
// size and head must be the verified length and chain head recovery
// established.
func openAudit(fsys faultfs.FS, path string, size int64, head string) (*auditLog, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("keycom: open audit log: %w", err)
	}
	return &auditLog{f: f, size: size, head: head}, nil
}

// append writes and fsyncs one sealed record. Like the WAL, a failed
// append rewinds to the last acknowledged record.
func (a *auditLog) append(rec *AuditRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("keycom: encode audit record: %w", err)
	}
	line = append(line, '\n')
	_, werr := a.f.Write(line)
	if werr == nil {
		werr = a.f.Sync()
	}
	if werr != nil {
		if terr := a.f.Truncate(a.size); terr != nil {
			return fmt.Errorf("keycom: audit append failed (%w) and rewind failed (%v): %w", werr, terr, ErrLogUnusable)
		}
		return fmt.Errorf("keycom: audit append: %w", werr)
	}
	a.size += int64(len(line))
	a.head = rec.Hash
	return nil
}

func (a *auditLog) close() error {
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
