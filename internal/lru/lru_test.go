package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEviction(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Get(1) // bump 1; 2 is now LRU
	c.Put(3, "c")
	if _, ok := c.Get(2); ok {
		t.Error("2 survived eviction, want LRU out")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Errorf("Get(1) = %q,%v after bump", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "c" {
		t.Errorf("Get(3) = %q,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestReplaceAndClear(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1)
	c.Put("k", 2) // in-place replace, no growth
	if v, _ := c.Get("k"); v != 2 {
		t.Errorf("replaced value = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after replace, want 1", c.Len())
	}
	if n := c.Clear(); n != 1 {
		t.Errorf("Clear = %d, want 1", n)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("entry survived Clear")
	}
}

func TestDeleteFunc(t *testing.T) {
	c := New[int, string](8)
	for i := 0; i < 6; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	c.DeleteFunc(func(k int, v string) bool { return k%2 == 0 && v == fmt.Sprint(k) })
	if c.Len() != 3 {
		t.Errorf("Len = %d after DeleteFunc, want 3", c.Len())
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.Get(i); ok != (i%2 == 1) {
			t.Errorf("Get(%d) found = %v after deleting the even keys", i, ok)
		}
	}
	// The survivors keep their order: 1 is least recently used.
	c.Get(3)
	c.Get(5)
	for i := 6; i < 12; i++ {
		c.Put(i, "")
	}
	if _, ok := c.Get(1); ok {
		t.Error("1 survived eviction, want LRU out")
	}
}

// TestConcurrent hammers one cache from many goroutines under -race.
func TestConcurrent(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w + i) % 32
				c.Put(k, i)
				c.Get(k)
				if i%100 == 0 {
					c.Len()
				}
				if i%50 == 0 {
					c.DeleteFunc(func(k, _ int) bool { return k%3 == w%3 })
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity 16", c.Len())
	}
}

func TestZeroValueMiss(t *testing.T) {
	c := New[string, fmt.Stringer](2)
	if v, ok := c.Get("absent"); ok || v != nil {
		t.Errorf("miss returned %v, %v", v, ok)
	}
}
