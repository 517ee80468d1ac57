package keynote

import "testing"

// flushingResolver answers from a table, optionally running a hook
// (standing in for a concurrent Flush) between reading the table and
// returning.
type flushingResolver struct {
	ids   map[string]string
	calls int
	hook  func()
}

func (r *flushingResolver) Resolve(name string) (string, error) {
	r.calls++
	id := r.ids[name]
	if r.hook != nil {
		r.hook()
	}
	return id, nil
}

// TestMemoResolverDropsResolutionStraddlingFlush: a resolution that
// read the catalogue before a Flush must not be memoised after it, or
// the memo would serve the pre-Flush binding for good.
func TestMemoResolverDropsResolutionStraddlingFlush(t *testing.T) {
	under := &flushingResolver{ids: map[string]string{"Kbob": "old"}}
	mr := NewMemoResolver(under)
	under.hook = func() {
		under.ids["Kbob"] = "new"
		mr.Flush()
	}
	if id, _ := mr.Resolve("Kbob"); id != "old" {
		t.Fatalf("first resolve = %q, want the binding it read", id)
	}
	under.hook = nil
	if id, _ := mr.Resolve("Kbob"); id != "new" {
		t.Fatalf("resolve after Flush = %q, want new: a straddling resolution was memoised", id)
	}
	if id, _ := mr.Resolve("Kbob"); id != "new" || under.calls != 2 {
		t.Fatalf("memoised resolve = %q after %d resolver calls, want new after 2", id, under.calls)
	}
}
