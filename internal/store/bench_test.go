package store

import (
	"fmt"
	"os"
	"testing"
)

// BenchmarkDiskReopen measures Open on a store whose 64 keys were each
// rewritten cycles times, one Sync per cycle as a sender's refresh
// loop does, and then closed. It reports reopen time per op and the
// ratio of bytes on disk to the bytes of the live records; with
// compaction both stay flat as cycles grow.
func BenchmarkDiskReopen(b *testing.B) {
	const keys = 64
	value := make([]byte, 256)
	for _, cycles := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("cycles=%d", cycles), func(b *testing.B) {
			dir := b.TempDir()
			s, err := OpenDisk(dir)
			if err != nil {
				b.Fatal(err)
			}
			for c := 0; c < cycles; c++ {
				for k := 0; k < keys; k++ {
					value[0] = byte(c)
					if err := s.Put(fmt.Sprintf("policy/domain%03d.example", k), value); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			live := s.size - s.dead
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			var onDisk int64
			for _, e := range entries {
				fi, err := e.Info()
				if err != nil {
					b.Fatal(err)
				}
				onDisk += fi.Size()
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := OpenDisk(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(onDisk)/float64(live), "disk-bytes/live-byte")
		})
	}
}
