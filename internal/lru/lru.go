// Package lru provides the mutex-guarded, fixed-capacity LRU map shared
// by the engine's plan cache and the query service's result cache.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a fixed-capacity least-recently-used map. All methods are
// safe for concurrent use. Capacity is counted in entries.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*list.Element
	order    *list.List // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*list.Element, capacity),
		order:    list.New(),
	}
}

// Get returns the value under k, bumping its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or replaces the value under k, evicting least-recently-
// used entries beyond capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value = &entry[K, V]{key: k, val: v}
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
	c.entries[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
}

// Delete removes the entry under k, if present, and reports whether it
// existed.
func (c *Cache[K, V]) Delete(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, k)
	return true
}

// DeleteFunc removes every entry for which del returns true. del runs
// under the cache's lock.
func (c *Cache[K, V]) DeleteFunc(del func(K, V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*entry[K, V]); del(ent.key, ent.val) {
			c.order.Remove(el)
			delete(c.entries, ent.key)
		}
		el = next
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Clear empties the cache and returns how many entries it dropped.
func (c *Cache[K, V]) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.order.Len()
	clear(c.entries)
	c.order.Init()
	return n
}
