//! Lock-free bounded ring buffer sink.
//!
//! A fixed number of slots is overwritten in arrival order, so the buffer
//! always holds the *last* `capacity` events — the right shape for tests
//! and the timeline example, which care about recent decisions and must
//! not let a long run grow memory without bound.
//!
//! Writers claim a ticket from a shared counter and publish into
//! `ticket % capacity` guarded by a per-slot sequence word (odd while a
//! write is in flight, `2 * ticket + 2` once published). Readers take a
//! consistent snapshot by re-checking the sequence after copying — the
//! classic seqlock pattern, valid here because [`Event`] is `Copy`.

use crate::event::Event;
use crate::sink::Sink;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

struct Slot {
    /// 0 = never written; `2t + 1` = ticket `t` writing; `2t + 2` = done.
    seq: AtomicU64,
    data: UnsafeCell<MaybeUninit<Event>>,
}

/// In-memory sink keeping the most recent `capacity` events.
pub struct RingBufferSink {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

// SAFETY: `data` is only written by the thread that claimed the slot's
// ticket (enforced by the `seq` CAS in `record`), and `snapshot` validates
// `seq` before and after every read so torn reads are discarded.
unsafe impl Sync for RingBufferSink {}
unsafe impl Send for RingBufferSink {}

impl RingBufferSink {
    /// Creates a ring holding the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingBufferSink {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        RingBufferSink {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Copies out the retained events, oldest first.
    ///
    /// Safe to call concurrently with writers; slots with a write in
    /// flight at snapshot time are skipped rather than torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let start = head.saturating_sub(len);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket % len) as usize];
            let published = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != published {
                continue;
            }
            // SAFETY: `seq == published` means ticket's write completed;
            // re-checking below rejects a concurrent overwrite that began
            // during the copy. Event is Copy, so a discarded read is fine.
            let event = unsafe { (*slot.data.get()).assume_init() };
            if slot.seq.load(Ordering::Acquire) == published {
                out.push(event);
            }
        }
        out
    }
}

impl Sink for RingBufferSink {
    fn record(&self, event: &Event) {
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let len = self.slots.len() as u64;
        let slot = &self.slots[(ticket % len) as usize];
        // The previous occupant of this slot (ticket - len) must have
        // published before we may reuse it; exact-match CAS keeps lap
        // order strict and deadlock-free.
        let expected = if ticket < len {
            0
        } else {
            2 * (ticket - len) + 2
        };
        let writing = 2 * ticket + 1;
        while slot
            .seq
            .compare_exchange_weak(expected, writing, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: the CAS above grants this thread exclusive write access
        // until the release store below publishes the slot.
        unsafe {
            (*slot.data.get()).write(*event);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }
}

impl std::fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBufferSink")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn marker(i: u64) -> Event {
        Event::HotspotPromoted {
            method: i as u32,
            invocations: i,
            instret: i,
        }
    }

    fn method_of(ev: &Event) -> u64 {
        match ev {
            Event::HotspotPromoted { invocations, .. } => *invocations,
            _ => panic!("unexpected event"),
        }
    }

    #[test]
    fn keeps_last_capacity_events_in_order() {
        let ring = RingBufferSink::new(4);
        for i in 0..10 {
            ring.record(&marker(i));
        }
        assert_eq!(ring.recorded(), 10);
        let got: Vec<u64> = ring.snapshot().iter().map(method_of).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_returns_only_written() {
        let ring = RingBufferSink::new(8);
        for i in 0..3 {
            ring.record(&marker(i));
        }
        let got: Vec<u64> = ring.snapshot().iter().map(method_of).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn snapshot_during_concurrent_wraparound_never_tears() {
        // Capacity far below the write volume forces every slot through
        // many laps while a reader snapshots continuously. The seqlock
        // contract under test: a snapshot never returns a torn event and
        // stays ordered oldest→newest by ticket within each pass.
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 5_000;
        let ring = Arc::new(RingBufferSink::new(32));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writers start only once the reader has taken its first snapshot,
        // so on a loaded host the writes cannot all finish before the
        // reader is scheduled.
        let reading = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer_handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                let reading = Arc::clone(&reading);
                std::thread::spawn(move || {
                    while !reading.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for i in 0..PER_WRITER {
                        ring.record(&marker(t * PER_WRITER + i));
                    }
                })
            })
            .collect();

        let reader = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let reading = Arc::clone(&reading);
            std::thread::spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = ring.snapshot();
                    assert!(snap.len() <= ring.capacity());
                    for ev in &snap {
                        // Only writer-produced markers may appear; a torn
                        // read would produce an inconsistent payload.
                        let v = method_of(ev);
                        assert!(v < WRITERS * PER_WRITER, "torn event: {v}");
                        match ev {
                            Event::HotspotPromoted {
                                method,
                                invocations,
                                instret,
                            } => {
                                assert_eq!(*method as u64, *invocations);
                                assert_eq!(*invocations, *instret);
                            }
                            other => panic!("unexpected event {other:?}"),
                        }
                    }
                    snapshots += 1;
                    reading.store(true, Ordering::Release);
                }
                snapshots
            })
        };

        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let snapshots = reader.join().unwrap();
        assert!(snapshots > 0);
        assert_eq!(ring.recorded(), WRITERS * PER_WRITER);

        // Quiescent snapshot after full wraparound: exactly `capacity`
        // events, all from the final lap window.
        let final_snap = ring.snapshot();
        assert_eq!(final_snap.len(), ring.capacity());
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let ring = Arc::new(RingBufferSink::new((THREADS * PER_THREAD) as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.record(&marker(t * PER_THREAD + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<u64> = ring.snapshot().iter().map(method_of).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..THREADS * PER_THREAD).collect();
        assert_eq!(got, want);
    }
}
