package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// logFactories lets every generic test run against both implementations.
func logFactories(t *testing.T) map[string]func() Log {
	t.Helper()
	return map[string]func() Log{
		"mem": func() Log { return NewMemLog() },
		"file": func() Log {
			path := t.TempDir() + "/wal.log"
			l, err := OpenFileLog(path, FileLogOptions{})
			if err != nil {
				t.Fatalf("OpenFileLog: %v", err)
			}
			return l
		},
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			for i := 1; i <= 5; i++ {
				lsn, err := l.Append(RecCommit, []byte(fmt.Sprintf("rec%d", i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				if lsn != uint64(i) {
					t.Fatalf("LSN = %d, want %d (dense from 1)", lsn, i)
				}
			}
			if l.LastLSN() != 5 {
				t.Errorf("LastLSN = %d", l.LastLSN())
			}
			var got []string
			if err := l.Scan(1, func(r Record) error {
				got = append(got, fmt.Sprintf("%d:%s:%s", r.LSN, r.Kind, r.Data))
				return nil
			}); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if len(got) != 5 || got[2] != "3:commit:rec3" {
				t.Errorf("scan results: %v", got)
			}
		})
	}
}

func TestScanFromMiddle(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			for i := 0; i < 10; i++ {
				l.Append(RecApplied, nil)
			}
			var n int
			l.Scan(7, func(r Record) error { n++; return nil })
			if n != 4 {
				t.Errorf("Scan(7) visited %d records, want 4", n)
			}
		})
	}
}

func TestScanStopsOnError(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			for i := 0; i < 5; i++ {
				l.Append(RecCommit, nil)
			}
			sentinel := errors.New("stop")
			var n int
			err := l.Scan(1, func(r Record) error {
				n++
				if n == 2 {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) || n != 2 {
				t.Errorf("err=%v n=%d", err, n)
			}
		})
	}
}

func TestAppendAfterClose(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			l.Close()
			if _, err := l.Append(RecCommit, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after Close: %v, want ErrClosed", err)
			}
		})
	}
}

func TestConcurrentAppendsDenseLSNs(t *testing.T) {
	for name, mk := range logFactories(t) {
		t.Run(name, func(t *testing.T) {
			l := mk()
			defer l.Close()
			const workers, per = 8, 50
			var wg sync.WaitGroup
			lsns := make(chan uint64, workers*per)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						lsn, err := l.Append(RecVmCreate, []byte("x"))
						if err != nil {
							t.Error(err)
							return
						}
						lsns <- lsn
					}
				}()
			}
			wg.Wait()
			close(lsns)
			seen := map[uint64]bool{}
			for lsn := range lsns {
				if seen[lsn] {
					t.Fatalf("duplicate LSN %d", lsn)
				}
				seen[lsn] = true
			}
			for i := uint64(1); i <= workers*per; i++ {
				if !seen[i] {
					t.Fatalf("LSN %d missing (not dense)", i)
				}
			}
		})
	}
}

func TestAppendCopiesData(t *testing.T) {
	l := NewMemLog()
	buf := []byte("abc")
	l.Append(RecCommit, buf)
	buf[0] = 'z'
	l.Scan(1, func(r Record) error {
		if string(r.Data) != "abc" {
			t.Errorf("log stored aliased buffer: %q", r.Data)
		}
		return nil
	})
}

func TestMemLogAppendHookFault(t *testing.T) {
	l := NewMemLog()
	boom := errors.New("disk full")
	l.SetAppendHook(func(Record) error { return boom })
	if _, err := l.Append(RecCommit, nil); !errors.Is(err, boom) {
		t.Errorf("hooked Append err = %v", err)
	}
	if l.LastLSN() != 0 {
		t.Error("failed append must not advance the log")
	}
	l.SetAppendHook(nil)
	if _, err := l.Append(RecCommit, nil); err != nil {
		t.Errorf("Append after clearing hook: %v", err)
	}
}

func TestRecordKindStrings(t *testing.T) {
	kinds := []RecordKind{RecVmCreate, RecVmAccept, RecCommit, RecApplied,
		RecCheckpoint, RecPrepare, RecDecision}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad/duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if RecordKind(200).String() != "kind(200)" {
		t.Error("unknown kind string")
	}
}
