//! The shared-memory byte pipe for co-located worker processes.
//!
//! One segment file per shard adjacency, created zero-filled by the
//! coordinator and mapped by both workers. It holds two single-producer
//! single-consumer byte rings, one per direction, and nothing else: what the
//! bytes mean is [`crate::transport::FrameTransport`]'s business, exactly as
//! over a socket.
//!
//! ```text
//! ring lo→hi:  [ head u64 ][ tail u64 ][ closed u64 ]   one cache line each
//! ring hi→lo:  [ head u64 ][ tail u64 ][ closed u64 ]
//! data lo→hi:  RING_BYTES
//! data hi→lo:  RING_BYTES
//! ```
//!
//! `head` and `tail` are monotone byte counts (position = count mod
//! `RING_BYTES`); a write may be partial, so a frame of any size streams
//! through. The memory-ordering argument is the usual SPSC one, across
//! processes:
//!
//! * the producer copies bytes into `[tail, tail + n)` and then stores
//!   `tail + n` with `Release`; the consumer loads `tail` with `Acquire`
//!   before it copies them out, so it reads what was written;
//! * the consumer stores `head + n` with `Release` only after its copy; the
//!   producer loads `head` with `Acquire` before it reuses that space, so it
//!   never overwrites bytes still being read;
//! * `close_write` stores `closed` with `Release` after the last `tail`
//!   store; a consumer that finds the ring empty, then sees `closed` with
//!   `Acquire`, re-loads `tail`: it is final, so "empty and closed" is the
//!   end of the stream and nothing before it can be missed.
//!
//! Each side keeps the cursor it owns in private memory and only publishes
//! it; it never reads it back. Cursors read from the segment are checked
//! (`tail − head ≤ RING_BYTES`) and positions are taken modulo the ring, so a
//! peer that scribbles on the header can make the stream fail or deliver
//! garbage — which the frame decoder rejects — but cannot move a copy outside
//! the data area.

use crate::transport::BytePipe;
use hornet_shard::sys;
use std::fs::OpenOptions;
use std::io::{self, ErrorKind, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes per direction. This bounds how far one side can run ahead of the
/// other before its `write` reports `WouldBlock`, not the size of a frame (a
/// larger frame streams through in pieces). 256 KiB is about what a Unix
/// socket buffers by default, so the two pipes let a shard get equally far
/// ahead; a cycle-accurate 16×16 frame is ≈1 KiB.
const RING_BYTES: usize = 256 << 10;
const LINE: usize = 64;
/// Header: (head, tail, closed) × two rings, a cache line each.
const HEADER_BYTES: usize = 6 * LINE;
const SEGMENT_BYTES: usize = HEADER_BYTES + 2 * RING_BYTES;

fn unsupported() -> io::Error {
    io::Error::new(
        ErrorKind::Unsupported,
        "shared file mappings unavailable on this platform (use the socket transport)",
    )
}

/// Creates the zero-filled segment file of one adjacency (the coordinator's
/// half of the set-up; the file lives in the run's scratch directory).
pub fn create_segment(path: &Path) -> io::Result<()> {
    if !sys::shared_mappings_available() {
        return Err(unsupported());
    }
    let file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    file.set_len(SEGMENT_BYTES as u64)
}

/// One end of the pipe: a mapping of the segment, the ring this side writes,
/// the ring it reads, and its private copy of the cursor it owns in each.
pub struct ShmPipe {
    ptr: *mut u8,
    /// Ring index (0 = lo→hi, 1 = hi→lo) this side produces into.
    tx: usize,
    /// Bytes this side has written (`tail` of ring `tx`).
    written: u64,
    /// Bytes this side has read (`head` of ring `1 - tx`).
    consumed: u64,
}

// SAFETY: `ptr` is a shared file mapping this value owns until `Drop`; every
// access to it goes through `&mut self`, so moving the pipe to another thread
// moves the only user. Concurrent access from the peer's mapping follows the
// SPSC protocol in the module docs.
unsafe impl Send for ShmPipe {}

impl ShmPipe {
    /// Maps the segment at `path` (made by [`create_segment`]) as the lower-
    /// (`is_lo`) or higher-numbered shard's end of the adjacency.
    pub fn open(path: &Path, is_lo: bool) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() != SEGMENT_BYTES as u64 {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "shared segment is not the size of a pipe",
            ));
        }
        // SAFETY: `file` is open and exactly `SEGMENT_BYTES` long; the
        // mapping outlives the descriptor and is unmapped once, in `Drop`.
        let ptr =
            unsafe { sys::map_shared(file.as_raw_fd(), SEGMENT_BYTES) }.ok_or_else(unsupported)?;
        Ok(Self {
            ptr,
            tx: usize::from(!is_lo),
            written: 0,
            consumed: 0,
        })
    }

    /// Header word `word` (0 head, 1 tail, 2 closed) of ring `ring`.
    fn word(&self, ring: usize, word: usize) -> &AtomicU64 {
        debug_assert!(ring < 2 && word < 3);
        // SAFETY: the offset is a multiple of `LINE` below `HEADER_BYTES`, so
        // the word is in bounds and 8-aligned (mappings are page-aligned);
        // every access to it, from either process, is atomic.
        unsafe { &*(self.ptr.add((ring * 3 + word) * LINE) as *const AtomicU64) }
    }

    /// Splits `len` bytes at stream position `pos` of ring `ring` into the
    /// (at most two) contiguous spans of the data area they occupy.
    fn spans(&self, ring: usize, pos: u64, len: usize) -> [(*mut u8, usize); 2] {
        debug_assert!(len <= RING_BYTES);
        let at = (pos % RING_BYTES as u64) as usize;
        let first = len.min(RING_BYTES - at);
        // SAFETY: `at < RING_BYTES`, so both pointers stay inside ring
        // `ring`'s data area whatever `pos` is.
        unsafe {
            let data = self.ptr.add(HEADER_BYTES + ring * RING_BYTES);
            [(data.add(at), first), (data, len - first)]
        }
    }
}

fn corrupt() -> io::Error {
    io::Error::new(ErrorKind::InvalidData, "ring cursors are inconsistent")
}

impl Read for ShmPipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rx = 1 - self.tx;
        let mut tail = self.word(rx, 1).load(Ordering::Acquire);
        if tail == self.consumed {
            if self.word(rx, 2).load(Ordering::Acquire) == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            // Closed: `tail` is final now (see the module docs).
            tail = self.word(rx, 1).load(Ordering::Acquire);
            if tail == self.consumed {
                return Ok(0);
            }
        }
        let available = tail.wrapping_sub(self.consumed);
        if available > RING_BYTES as u64 {
            return Err(corrupt());
        }
        let n = buf.len().min(available as usize);
        let mut out = buf.as_mut_ptr();
        for (src, len) in self.spans(rx, self.consumed, n) {
            // SAFETY: `src..src+len` is inside the data area and was
            // published by the producer's `tail` store; `out` has `n` bytes
            // of room and the spans' lengths sum to `n`.
            unsafe {
                std::ptr::copy_nonoverlapping(src, out, len);
                out = out.add(len);
            }
        }
        self.consumed += n as u64;
        self.word(rx, 0).store(self.consumed, Ordering::Release);
        Ok(n)
    }
}

impl Write for ShmPipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let head = self.word(self.tx, 0).load(Ordering::Acquire);
        let used = self.written.wrapping_sub(head);
        if used > RING_BYTES as u64 {
            return Err(corrupt());
        }
        let n = buf.len().min(RING_BYTES - used as usize);
        if n == 0 && !buf.is_empty() {
            return Err(ErrorKind::WouldBlock.into());
        }
        let mut from = buf.as_ptr();
        for (dst, len) in self.spans(self.tx, self.written, n) {
            // SAFETY: `dst..dst+len` is inside the data area and free: the
            // consumer's `head` store released it and nothing is published
            // there until the `tail` store below. `from` has `n` bytes left.
            unsafe {
                std::ptr::copy_nonoverlapping(from, dst, len);
                from = from.add(len);
            }
        }
        self.written += n as u64;
        self.word(self.tx, 1).store(self.written, Ordering::Release);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl BytePipe for ShmPipe {
    const LINK: &'static str = "shared-memory ring";

    fn close_write(&mut self) {
        self.word(self.tx, 2).store(1, Ordering::Release);
    }

    fn drain(&mut self, scratch: &mut [u8], grace: Duration) {
        let mut last_heard = Instant::now();
        loop {
            match self.read(scratch) {
                Ok(0) => return,
                Ok(_) => last_heard = Instant::now(),
                Err(e) if e.kind() == ErrorKind::WouldBlock && last_heard.elapsed() < grace => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(_) => return,
            }
        }
    }
}

impl Drop for ShmPipe {
    fn drop(&mut self) {
        // SAFETY: the one mapping `open` made; no reference into it outlives
        // `self`.
        unsafe { sys::unmap(self.ptr, SEGMENT_BYTES) };
    }
}

#[cfg(test)]
impl ShmPipe {
    /// Both ends `(lo, hi)` of a fresh pipe whose file is already unlinked.
    pub(crate) fn pair() -> (ShmPipe, ShmPipe) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "hornet-shm-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        create_segment(&path).unwrap();
        let ends = (
            ShmPipe::open(&path, true).unwrap(),
            ShmPipe::open(&path, false).unwrap(),
        );
        std::fs::remove_file(&path).unwrap();
        ends
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::transport::{BoundaryTransport, FrameTransport};
    use hornet_shard::driver::NoPayloads;
    use hornet_shard::wiring::NeighborWiring;
    use std::sync::Arc;

    fn would_block<T: std::fmt::Debug>(r: io::Result<T>) -> bool {
        matches!(&r, Err(e) if e.kind() == ErrorKind::WouldBlock)
    }

    /// The byte at stream position `i` of the test pattern.
    fn pattern(i: u64) -> u8 {
        (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
    }

    #[test]
    fn bytes_cross_in_order_across_many_wraps() {
        let (mut lo, mut hi) = ShmPipe::pair();
        // Neither chunk size divides the ring, so copies split at the wrap
        // at ever-changing offsets; 12 ring lengths go through.
        let (mut sent, mut got) = (0u64, 0u64);
        let mut chunk = vec![0u8; 70_001];
        let mut out = vec![0u8; 33_333];
        while got < 12 * RING_BYTES as u64 {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = pattern(sent + i as u64);
            }
            sent += lo.write(&chunk).unwrap_or(0) as u64;
            let n = hi.read(&mut out).unwrap();
            for (i, b) in out[..n].iter().enumerate() {
                assert_eq!(*b, pattern(got + i as u64), "byte {}", got + i as u64);
            }
            got += n as u64;
        }
        assert!(sent >= got && sent - got <= RING_BYTES as u64);
    }

    #[test]
    fn a_full_ring_would_block_and_resumes() {
        let (mut lo, mut hi) = ShmPipe::pair();
        assert!(would_block(hi.read(&mut [0; 8])), "empty ring");
        let big = vec![7u8; RING_BYTES + 1000];
        assert_eq!(lo.write(&big).unwrap(), RING_BYTES, "a partial write");
        assert!(would_block(lo.write(&big)), "full ring");
        let mut out = vec![0u8; 1000];
        assert_eq!(hi.read(&mut out).unwrap(), 1000);
        assert_eq!(lo.write(&big).unwrap(), 1000, "room for what was read");
        assert!(would_block(lo.write(&[1])));
    }

    #[test]
    fn close_reads_as_end_of_stream_after_the_bytes_before_it() {
        let (mut lo, mut hi) = ShmPipe::pair();
        lo.write_all(b"last words").unwrap();
        lo.close_write();
        let mut out = [0u8; 4];
        assert_eq!(hi.read(&mut out).unwrap(), 4);
        assert_eq!(hi.read(&mut out).unwrap(), 4);
        assert_eq!(hi.read(&mut out).unwrap(), 2);
        assert_eq!(hi.read(&mut out).unwrap(), 0, "end of stream");
        assert_eq!(hi.read(&mut out).unwrap(), 0, "and it stays ended");
        // The other direction is still open.
        hi.write_all(b"ack").unwrap();
        assert_eq!(lo.read(&mut out).unwrap(), 3);
        assert!(would_block(lo.read(&mut out)));
    }

    /// A peer that scribbles on the header makes the stream fail; the copy
    /// positions are taken modulo the ring, so it cannot move them outside
    /// the data area (debug builds assert the span length as well).
    #[test]
    fn scribbled_cursors_are_an_error_never_a_panic() {
        let ring = RING_BYTES as u64;
        let mut buf = vec![0u8; 2 * RING_BYTES];
        // `hi` reads ring 0 and writes ring 1, and has moved 10 bytes each
        // way, so its own cursors stand at 10.
        let scribbled = || {
            let (mut lo, mut hi) = ShmPipe::pair();
            lo.write_all(&[1; 10]).unwrap();
            hi.write_all(&[2; 10]).unwrap();
            assert_eq!(hi.read(&mut [0; 16]).unwrap(), 10);
            (lo, hi)
        };
        // More in flight than the ring holds; the peer's cursor behind ours.
        for tail in [10 + ring + 1, u64::MAX, 1 << 41, 9, 0] {
            let (lo, mut hi) = scribbled();
            lo.word(0, 1).store(tail, Ordering::Release);
            let err = hi.read(&mut buf).expect_err("inconsistent tail");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "tail {tail}");
        }
        for head in [11, 10 + ring, 1 << 41] {
            let (lo, mut hi) = scribbled();
            lo.word(1, 0).store(head, Ordering::Release);
            let err = hi.write(&buf).expect_err("inconsistent head");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "head {head}");
        }
        // A tail scribbled *within* the ring delivers bytes nobody wrote;
        // the frame transport on top rejects them and names the link.
        let (lo, hi) = ShmPipe::pair();
        let wiring = NeighborWiring {
            peer: 0,
            out_links: Vec::new(),
            in_links: Vec::new(),
        };
        let mut t = FrameTransport::new(hi, &wiring, 0, Arc::new(NoPayloads)).unwrap();
        lo.word(0, 1).store(ring - 1, Ordering::Release);
        assert!(t.reached(u64::MAX), "a failed link releases every wait");
        let err = t.pump(1, true).expect_err("garbage frame");
        assert!(err.to_string().contains("shared-memory ring to shard 0"));
        std::mem::forget(t); // a failed shard leaves its links to process exit
    }

    /// Unlike `VcBuffer`, this ring does synchronise: a producer and a
    /// consumer thread move 16 MiB through it and the checksums agree.
    #[test]
    fn producer_and_consumer_threads_agree_on_every_byte() {
        const TOTAL: u64 = 16 << 20;
        let (mut lo, mut hi) = ShmPipe::pair();
        let sum = |acc: u64, b: u8| acc.wrapping_mul(31).wrapping_add(u64::from(b));
        let producer = std::thread::spawn(move || {
            let (mut sent, mut acc) = (0u64, 0u64);
            let mut chunk = vec![0u8; 9_973];
            while sent < TOTAL {
                let want = chunk.len().min((TOTAL - sent) as usize);
                for (i, b) in chunk[..want].iter_mut().enumerate() {
                    *b = pattern(sent + i as u64);
                }
                match lo.write(&chunk[..want]) {
                    Ok(n) => {
                        acc = chunk[..n].iter().fold(acc, |a, b| sum(a, *b));
                        sent += n as u64;
                    }
                    Err(_) => std::thread::yield_now(),
                }
            }
            lo.close_write();
            acc
        });
        let (mut got, mut acc) = (0u64, 0u64);
        let mut out = vec![0u8; 7_919];
        loop {
            match hi.read(&mut out) {
                Ok(0) => break,
                Ok(n) => {
                    acc = out[..n].iter().fold(acc, |a, b| sum(a, *b));
                    got += n as u64;
                }
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::WouldBlock);
                    std::thread::yield_now();
                }
            }
        }
        assert_eq!(got, TOTAL);
        assert_eq!(acc, producer.join().unwrap());
    }
}
