package vm

import (
	"runtime/debug"
	"slices"
	"sync"
)

// pageBufs recycles page buffers — resident frames, a message's snapshot, a
// decoder's copy: a fresh 8 KB span is cold memory, and on the real mesh
// every remote fault touched three. A buffer has one owner at a time;
// decoders run on socket goroutines, frames die on the engine (hence a
// sync.Pool). A leak is garbage, a double put or a use after put is
// corruption: when in doubt, don't put.
var pageBufs sync.Pool // of *[PageSize]byte: a pointer boxes without allocating

// GetPageBuf returns a PageSize buffer; the caller overwrites every byte.
func GetPageBuf() []byte {
	if b, _ := pageBufs.Get().(*[PageSize]byte); b != nil {
		return b[:]
	}
	return make([]byte, PageSize)
}

// PutPageBuf gives a dead page buffer back; anything but a whole page (nil
// in metadata-only runs, a short test payload) is ignored. Race-detector
// builds poison it, so a stale alias fails the data-checking tests there.
func PutPageBuf(b []byte) {
	if len(b) != PageSize {
		return
	}
	if raceBuild {
		for i := range b {
			b[i] = 0xDB
		}
	}
	pageBufs.Put((*[PageSize]byte)(b))
}

var raceBuild = func() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}()
