//go:build amd64 || arm64

package arena

import "unsafe"

// prefetchLine asks the host CPU to pull the cache line holding p into its
// L1 data cache. It is a hint: it never faults, and it writes nothing.
//
//go:noescape
func prefetchLine(p unsafe.Pointer)
