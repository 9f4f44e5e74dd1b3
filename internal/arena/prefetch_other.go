//go:build !amd64 && !arm64

package arena

import "unsafe"

// prefetchLine is a no-op on architectures without an assembly prefetch.
func prefetchLine(p unsafe.Pointer) {}
