package mpi

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Launch helpers for TCP worlds. RunTCPLocal hosts every rank as a
// goroutine of the calling process but routes all traffic through real
// loopback sockets — the differential and conformance tests use it to
// exercise the wire without process management. LaunchTCPLocal spawns
// one OS process per rank (the real deployment shape) and is what
// cmd/devigo-run's launcher mode and the CI multi-process smoke build
// on.

// bindLocal binds n port-0 loopback listeners and returns them with
// their addresses in rank order: ports picked by the kernel, never raced.
func bindLocal(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("mpi: tcp: bind rank %d: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// RunTCPLocal executes body once per rank over a loopback TCP world and
// returns the lowest rank's root cause, exactly as RunRanks does (a
// failing rank closes its connections, which fails its peers' receives).
// Listeners are bound before any transport starts. timeout <= 0 means the
// default deadline.
func RunTCPLocal(n int, timeout time.Duration, body func(c *Comm) error) error {
	if n < 1 {
		return fmt.Errorf("mpi: tcp: world size %d < 1", n)
	}
	lns, addrs, err := bindLocal(n)
	if err != nil {
		return err
	}
	return runWorld(n, func(rank int) (*Comm, func(error), error) {
		t, err := NewTCPTransport(TCPConfig{Rank: rank, Addrs: addrs, Timeout: timeout, Listener: lns[rank]})
		if err != nil {
			return nil, nil, err
		}
		return NewComm(t), func(error) { t.Close() }, nil
	}, body)
}

// FreeLocalAddrs reserves n distinct loopback host:port addresses by
// binding and immediately closing port-0 listeners. The tiny window
// between close and the rank process's own bind is the usual free-port
// race; acceptable for a local launcher.
func FreeLocalAddrs(n int) ([]string, error) {
	lns, addrs, err := bindLocal(n)
	for _, l := range lns {
		l.Close()
	}
	return addrs, err
}

// WriteHostfile writes one host:port per line (rank order) to path.
func WriteHostfile(path string, addrs []string) error {
	if err := os.WriteFile(path, []byte(strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		return fmt.Errorf("mpi: tcp: hostfile: %w", err)
	}
	return nil
}

// LaunchTCPLocal spawns one child process per rank on localhost and
// waits for all of them: the command is argv re-executed verbatim with
// the rendezvous environment (DEVIGO_RANKS, DEVIGO_RANK,
// DEVIGO_HOSTFILE) appended, so the child recognizes itself as a rank
// via TCPFromEnv. Children share stdout; their stderr is held until every
// child has exited (a dead rank trips its peers' receives, which exits
// them too) and then forwarded in rank order. A failed launch forwards
// none and returns one *RankFailure: the lowest rank that failed on its
// own, or the lowest one when every failed rank exited ExitPeerFailed.
func LaunchTCPLocal(n int, argv []string) error {
	if n < 1 {
		return fmt.Errorf("mpi: tcp: world size %d < 1", n)
	}
	if len(argv) == 0 {
		return fmt.Errorf("mpi: tcp: empty launch command")
	}
	addrs, err := FreeLocalAddrs(n)
	if err != nil {
		return err
	}
	hf, err := os.CreateTemp("", "devigo-hostfile-*")
	if err != nil {
		return fmt.Errorf("mpi: tcp: hostfile: %w", err)
	}
	hostfile := hf.Name()
	hf.Close()
	defer os.Remove(hostfile)
	if err := WriteHostfile(hostfile, addrs); err != nil {
		return err
	}

	cmds := make([]*exec.Cmd, n)
	stderr := make([]bytes.Buffer, n)
	for r := 0; r < n; r++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", RanksEnvVar, n),
			fmt.Sprintf("%s=%d", RankEnvVar, r),
			fmt.Sprintf("%s=%s", HostfileEnvVar, hostfile),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = &stderr[r]
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("mpi: tcp: start rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	var own, peer *RankFailure
	for r, cmd := range cmds {
		err := cmd.Wait()
		if err == nil {
			continue
		}
		f := &RankFailure{Rank: r, Err: err, Stderr: stderr[r].String()}
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == ExitPeerFailed {
			peer = cmp.Or(peer, f)
		} else {
			own = cmp.Or(own, f)
		}
	}
	if f := cmp.Or(own, peer); f != nil {
		return f
	}
	for r := range stderr {
		os.Stderr.Write(stderr[r].Bytes())
	}
	return nil
}

// ExitPeerFailed is the exit status of a rank process whose failure only
// follows another rank's: its error is ErrPeerFailed.
const ExitPeerFailed = 2

// RankFailure is a rank process that LaunchTCPLocal saw fail. Its text is
// the rank's own report — its stderr — or its exit status when it wrote
// none.
type RankFailure struct {
	Rank   int
	Err    error
	Stderr string
}

// Error returns the rank's report.
func (f *RankFailure) Error() string {
	if s := strings.TrimSpace(f.Stderr); s != "" {
		return s
	}
	return fmt.Sprintf("mpi: tcp: rank %d: %v", f.Rank, f.Err)
}
