// Package pager stubs the repository's page store under its real import
// path. Inside this package the analyzer is silent: the pager implements
// the governed accessors, it does not bypass them.
package pager

import "rankcube/internal/stats"

// PageID identifies a page within one Store.
type PageID int32

// Store is a page store with governed (Read, Touch) and ungoverned
// (ReadRaw) accessors.
type Store struct{ pages [][]byte }

// Read fetches a page, charging the read to c.
func (s *Store) Read(id PageID, c *stats.Counters) []byte {
	c.Read(stats.StructSignature, 1)
	return s.pages[id]
}

// Touch charges a read without returning a payload.
func (s *Store) Touch(id PageID, c *stats.Counters) {
	c.Read(stats.StructSignature, 1)
}

// ReadRaw returns a payload without charging any read.
func (s *Store) ReadRaw(id PageID) []byte { return s.pages[id] }

// Buffer is a per-query buffer pool over a Store.
type Buffer struct{ store *Store }

// NewBuffer wraps store.
func NewBuffer(store *Store) *Buffer { return &Buffer{store: store} }

// Read fetches a page through the buffer.
func (b *Buffer) Read(id PageID, c *stats.Counters) []byte { return b.store.Read(id, c) }

// Touch charges the first access of a page.
func (b *Buffer) Touch(id PageID, c *stats.Counters) { b.store.Touch(id, c) }
