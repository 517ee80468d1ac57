// Package lru is the one bounded least-recently-used table the
// repository's caches are built on: the authz decision, session and
// compiled-DAG caches, the delegation mint cache, and the gateway's
// token admission table.
package lru

import "container/list"

// Cache is a plain LRU, generic over the cached value. It is not safe
// for concurrent use on its own — each owner serialises access under
// its own mutex, which also keeps the owner's hit/miss counters
// consistent.
type Cache[V any] struct {
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type entry[V any] struct {
	key string
	v   V
}

// New returns an empty cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the value cached under key and marks it most recent.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).v, true
}

// Put caches v under key as the most recent entry, evicting the least
// recent ones beyond capacity.
func (c *Cache[V]) Put(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).v = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, v: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return c.ll.Len() }

// Cap returns the capacity the cache was built with.
func (c *Cache[V]) Cap() int { return c.cap }

// Clear drops every entry.
func (c *Cache[V]) Clear() {
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.cap)
}
