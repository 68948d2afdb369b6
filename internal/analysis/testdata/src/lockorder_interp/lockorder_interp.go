// Package pfs is the golden fixture for lockorder through helpers: the
// lock-class acquisition is hidden behind helper functions, so the inversion
// is only visible through the MayAcquire summaries (each helper pairs its own
// Lock/Unlock, and no single function shows both classes). The package
// shadows the real pfs type and field names (FS.mu, storeShard.mu,
// FS.srvMu) so lockClass classifies them identically.
package pfs

import "sync"

type FS struct {
	mu    sync.Mutex
	srvMu sync.Mutex
}

type storeShard struct {
	mu sync.Mutex
}

type Store struct {
	fs     *FS
	shards [4]storeShard
}

// TableTouch pairs the file-table lock locally: its summary MayAcquire
// carries the file-table class.
func (s *Store) TableTouch() {
	s.fs.mu.Lock()
	s.fs.mu.Unlock()
}

// tableIndirect reaches the file-table lock only through TableTouch; the
// fixed point propagates MayAcquire one more hop.
func (s *Store) tableIndirect() { s.TableTouch() }

// ShardTouch pairs one shard lock locally.
func (s *Store) ShardTouch(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.mu.Unlock()
}

// HoldShardThenTable is the helper-mediated inversion: the shard lock
// (class 3) is held while a callee may acquire the file-table lock
// (class 1).
func (s *Store) HoldShardThenTable(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	s.TableTouch() // want `call to Store\.TableTouch may acquire file-table lock \(FS\.mu\) while holding chunk shard lock`
	sh.mu.Unlock()
}

// HoldShardThenIndirect inverts through two levels of helpers.
func (s *Store) HoldShardThenIndirect(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	s.tableIndirect() // want `call to Store\.tableIndirect may acquire file-table lock \(FS\.mu\) while holding chunk shard lock`
	sh.mu.Unlock()
}

// HoldTableThenShard is fine: classes acquired in the documented order.
func (s *Store) HoldTableThenShard(i int) {
	s.fs.mu.Lock()
	s.ShardTouch(i)
	s.fs.mu.Unlock()
}

// DeferredHelper is fine: a deferred call runs after this function's
// releases, like a deferred unlock.
func (s *Store) DeferredHelper(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer s.TableTouch()
	sh.mu.Unlock()
}
