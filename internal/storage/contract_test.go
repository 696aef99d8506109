package storage_test

import (
	"mobiceal/internal/dm"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/vclock"
)

// Every layer of the device stack takes request descriptors. A layer that
// falls off Do — and so back onto the ladder's per-block rung, losing the
// batch and the request's context — fails the build here.
var (
	_ storage.Doer = (*storage.MemDevice)(nil)
	_ storage.Doer = (*storage.SliceDevice)(nil)
	_ storage.Doer = (*storage.StatsDevice)(nil)
	_ storage.Doer = (*storage.FlakyDevice)(nil)
	_ storage.Doer = (*storage.CrashDevice)(nil)
	_ storage.Doer = (*storage.Snapshot)(nil)
	_ storage.Doer = (*storage.FileDevice)(nil)
	_ storage.Doer = (*vclock.CostDevice)(nil)
	_ storage.Doer = (*dm.Crypt)(nil)
	_ storage.Doer = (*thinp.Thin)(nil)
)
