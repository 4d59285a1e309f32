//! Host-side resource read-outs: CPU time and peak resident set, for this
//! process and for the children it has waited for.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14 `long`s of
/// which only the first (`ru_maxrss`, in KiB) is read here.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Whose resources [`usage`] reads.
#[derive(Copy, Clone, Debug)]
pub enum Who {
    /// This process, all threads.
    Own,
    /// Every child this process has waited for, and their waited-for
    /// descendants.
    Children,
}

/// User + system CPU time and peak resident set of one [`Who`].
#[derive(Copy, Clone, Debug, Default)]
pub struct Usage {
    pub cpu: Duration,
    pub max_rss_kib: u64,
}

pub fn usage(who: Who) -> Usage {
    let who = match who {
        Who::Own => 0,
        Who::Children => -1,
    };
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` is a writable buffer of exactly `struct rusage`'s size and
    // layout on Linux (2 × timeval + 14 × long); getrusage writes only
    // within it and does not keep the pointer.
    let rc = unsafe { getrusage(who, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage failed");
    // SAFETY: zero-initialised and then filled by a successful getrusage;
    // every field is a plain integer, so any bit pattern is valid.
    let ru = unsafe { ru.assume_init() };
    let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1_000);
    Usage {
        cpu: tv(&ru.utime) + tv(&ru.stime),
        max_rss_kib: ru.maxrss as u64,
    }
}

/// CPU time consumed so far by this process and its waited-for children.
pub fn cpu_time() -> Duration {
    usage(Who::Own).cpu + usage(Who::Children).cpu
}

/// Peak resident set of this process plus the largest waited-for child, MiB.
pub fn peak_rss_mb() -> f64 {
    (usage(Who::Own).max_rss_kib + usage(Who::Children).max_rss_kib) as f64 / 1024.0
}
