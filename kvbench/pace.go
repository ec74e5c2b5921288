package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a deadline with microsecond precision (Linux only:
// it reads a timerfd). time.Sleep
// wakes an otherwise idle process up to a millisecond late, and a
// blocking nanosleep holds the goroutine's P for the whole sleep, which
// stalls the server's goroutines. A timerfd read parks the goroutine in
// the network poller instead: no P is held, and the poller wakes it when
// the timer fires.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d.
func (p *pacer) sleep(d time.Duration) error {
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
