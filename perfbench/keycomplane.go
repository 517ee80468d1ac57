package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/ossec"
	"securewebcom/internal/rbac"
)

// The KeyCOM credential plane of gateway-churn, wired as authzd's
// buildKeyCOM wires it: a COM+ catalogue in NT domain DOMA with class
// SalariesDB.Component whose role Clerk holds Access, administered by
// one key, on a durable store.

const (
	ntDomain  = "DOMA"
	comClass  = "SalariesDB.Component"
	comRole   = "Clerk"
	seedUsers = 100_000
	// seedBatch users per seeding commit: five commits, so seeding costs
	// a handful of fsyncs, then one snapshot.
	seedBatch = 20_000
)

// seeded is what a freshly seeded store holds.
type seeded struct {
	seq  uint64
	rows int
}

// seedStore creates the store an installer would leave behind: seedUsers
// principals in role Clerk, snapshotted, closed.
func seedStore(dir string) (seeded, error) {
	st, err := keycom.OpenStore(dir, keycom.StoreOptions{})
	if err != nil {
		return seeded{}, err
	}
	for i := 0; i < seedUsers/seedBatch; i++ {
		var d rbac.Diff
		if i == 0 {
			d.AddedRolePerm = []rbac.RolePermEntry{{Domain: ntDomain, Role: comRole, ObjectType: comClass, Permission: complus.PermAccess}}
		}
		for j := 0; j < seedBatch; j++ {
			d.AddedUserRole = append(d.AddedUserRole, rbac.UserRoleEntry{
				User: rbac.User(fmt.Sprintf("u%06d", i*seedBatch+j)), Domain: ntDomain, Role: comRole})
		}
		if _, err := st.Commit("seed", d); err != nil {
			st.Close()
			return seeded{}, err
		}
	}
	if err := st.Snapshot(); err != nil {
		st.Close()
		return seeded{}, err
	}
	s := seeded{seq: st.Seq(), rows: st.Policy().Len()}
	return s, st.Close()
}

// openKeyCOM is authzd's restart path: open (recover) the store and
// attach it to a fresh service, which replays it into the catalogue.
func openKeyCOM(dir string, admin *keys.KeyPair, ks *keys.KeyStore, fsys faultfs.FS) (*keycom.Service, *keycom.Store, error) {
	nt := ossec.NewNTDomain(ntDomain)
	cat := complus.NewCatalogue("authzd", nt)
	cat.RegisterClass(comClass, map[string]middleware.Handler{})
	cat.DefineRole(comRole)
	if err := cat.Grant(comRole, comClass, complus.PermAccess); err != nil {
		return nil, nil, err
	}
	policy, err := keynote.New("POLICY", fmt.Sprintf("%q", admin.PublicID()), `app_domain=="KeyCOM";`)
	if err != nil {
		return nil, nil, err
	}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		return nil, nil, err
	}
	svc := keycom.NewService(cat, chk)
	st, err := keycom.OpenStore(dir, keycom.StoreOptions{FS: fsys})
	if err != nil {
		return nil, nil, err
	}
	if err := svc.AttachStore(context.Background(), st); err != nil {
		st.Close()
		return nil, nil, err
	}
	return svc, st, nil
}

// presignUpdates signs n catalogue updates, each adding one new user to
// role Clerk, and returns their /v1/credentials bodies.
func presignUpdates(admin *keys.KeyPair, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		req := keycom.UpdateRequest{
			Requester: admin.PublicID(),
			Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
				{User: rbac.User(fmt.Sprintf("n%07d", i)), Domain: ntDomain, Role: comRole}}},
		}
		if err := req.Sign(admin); err != nil {
			return nil, err
		}
		b, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// sendCommit posts one pre-signed update; the ack must say committed.
func (c *gwClient) sendCommit(data []byte) error {
	status, raw, err := c.post(c.admin, "/v1/credentials", "", "", data)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("commit: status %d: %s", status, raw)
	}
	var ack struct {
		Committed bool `json:"committed"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || !ack.Committed {
		return fmt.Errorf("%w: commit ack %s", errWrongAnswer, raw)
	}
	return nil
}

// recovery is one authzd restart on the store directory.
type recovery struct {
	took     time.Duration
	seq      uint64
	rows     int
	replayed int
}

// recoverStore times keycom.OpenStore + Service.AttachStore on dir.
func recoverStore(dir string, admin *keys.KeyPair) (recovery, error) {
	ks := keys.NewKeyStore()
	ks.Add(admin)
	start := time.Now()
	_, st, err := openKeyCOM(dir, admin, ks, nil)
	if err != nil {
		return recovery{}, err
	}
	r := recovery{took: time.Since(start), seq: st.Seq(), replayed: st.RecoveryInfo().Replayed}
	r.rows = st.Policy().Len()
	return r, st.Close()
}

// checkRecovered is the durability oracle: a restarted store holds the
// seed plus exactly the acknowledged commits, so no acked commit is lost
// (and none is invented).
func checkRecovered(r recovery, seed seeded, acked int) error {
	if r.seq != seed.seq+uint64(acked) || r.rows != seed.rows+acked {
		return fmt.Errorf("%w: recovered seq %d rows %d, want seq %d rows %d (seed %d/%d + %d acked commits)",
			errWrongAnswer, r.seq, r.rows, seed.seq+uint64(acked), seed.rows+acked, seed.seq, seed.rows, acked)
	}
	return nil
}
