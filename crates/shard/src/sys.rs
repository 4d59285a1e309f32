//! Minimal raw Linux syscall shims.
//!
//! The build image has no `libc` crate, so the two OS facilities the
//! execution runtimes need — pinning or placing a worker thread on a core and
//! mapping a file as shared memory for the co-located-process transport — are
//! issued as raw syscalls via inline assembly on Linux x86_64/aarch64.
//! Everywhere else they degrade gracefully: pinning and placing become no-ops
//! and shared mappings are reported as unavailable (callers fall back to the
//! socket transport).

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::arch::asm;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const MMAP: usize = 9;
        pub const MUNMAP: usize = 11;
        pub const SCHED_SETAFFINITY: usize = 203;
        pub const SCHED_GETAFFINITY: usize = 204;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const MMAP: usize = 222;
        pub const MUNMAP: usize = 215;
        pub const SCHED_SETAFFINITY: usize = 122;
        pub const SCHED_GETAFFINITY: usize = 123;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "svc 0",
                inlateout("x0") a as isize => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                in("x8") nr,
                options(nostack)
            );
        }
        ret
    }

    /// The CPUs the calling thread may currently run on (its cpuset /
    /// affinity mask), in ascending order. Empty on failure.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; 16];
        let ret = unsafe {
            syscall6(
                nr::SCHED_GETAFFINITY,
                0, // current thread
                std::mem::size_of_val(&mask),
                mask.as_mut_ptr() as usize,
                0,
                0,
                0,
            )
        };
        if ret < 0 {
            return Vec::new();
        }
        let mut cpus = Vec::new();
        for (word, bits) in mask.iter().enumerate() {
            for bit in 0..64 {
                if bits & (1u64 << bit) != 0 {
                    cpus.push(word * 64 + bit);
                }
            }
        }
        cpus
    }

    /// Sets the calling thread's affinity to exactly `cpus`. Returns `true`
    /// on success (used to restore a saved mask after pinning).
    pub fn set_affinity(cpus: &[usize]) -> bool {
        let mut mask = [0u64; 16];
        for &cpu in cpus {
            if cpu >= mask.len() * 64 {
                return false;
            }
            mask[cpu / 64] |= 1u64 << (cpu % 64);
        }
        if cpus.is_empty() {
            return false;
        }
        let ret = unsafe {
            syscall6(
                nr::SCHED_SETAFFINITY,
                0,
                std::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
                0,
                0,
                0,
            )
        };
        ret == 0
    }

    /// Pins the calling thread to the `idx`-th CPU of its *allowed* set
    /// (modulo the set size, so worker indexes wrap onto the available
    /// cores; containers and cgroups often exclude CPU 0). Returns `true`
    /// on success.
    pub fn pin_current_thread(idx: usize) -> bool {
        let allowed = allowed_cpus();
        if allowed.is_empty() {
            return false;
        }
        let cpu = allowed[idx % allowed.len()];
        let mut mask = [0u64; 16];
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] |= 1u64 << (cpu % 64);
        let ret = unsafe {
            syscall6(
                nr::SCHED_SETAFFINITY,
                0, // current thread
                std::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
                0,
                0,
                0,
            )
        };
        ret == 0
    }

    /// Moves the calling thread to the `idx`-th CPU of its allowed set (modulo
    /// the set size) and leaves the set as it was: a placement, not a pin, so
    /// the scheduler stays free to move the thread later. Returns `true` if
    /// the thread was placed.
    pub fn place_current_thread(idx: usize) -> bool {
        let allowed = allowed_cpus();
        allowed.len() > 1 && pin_current_thread(idx) && set_affinity(&allowed)
    }

    /// Maps `len` bytes of the file behind `fd` as a shared read-write
    /// mapping. Returns a page-aligned pointer, or `None` on failure.
    ///
    /// # Safety
    ///
    /// `fd` must be a valid open file descriptor whose file is at least `len`
    /// bytes long; the caller owns the returned mapping and must eventually
    /// [`unmap`] it.
    pub unsafe fn map_shared(fd: i32, len: usize) -> Option<*mut u8> {
        const PROT_READ_WRITE: usize = 0x3;
        const MAP_SHARED: usize = 0x1;
        let ret = unsafe {
            syscall6(
                nr::MMAP,
                0,
                len,
                PROT_READ_WRITE,
                MAP_SHARED,
                fd as usize,
                0,
            )
        };
        // Errors come back as small negative errno values.
        if ret < 0 {
            None
        } else {
            Some(ret as *mut u8)
        }
    }

    /// Unmaps a mapping previously returned by [`map_shared`].
    ///
    /// # Safety
    ///
    /// `ptr`/`len` must describe exactly one live mapping from [`map_shared`]
    /// and nothing may reference the mapping afterwards.
    pub unsafe fn unmap(ptr: *mut u8, len: usize) {
        let _ = unsafe { syscall6(nr::MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }

    /// True when shared file mappings are available on this platform.
    pub const fn shared_mappings_available() -> bool {
        true
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    /// No-op fallback: the affinity mask is unavailable.
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    /// No-op fallback.
    pub fn set_affinity(_cpus: &[usize]) -> bool {
        false
    }

    /// No-op fallback: reports failure so callers skip pinning.
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }

    /// No-op fallback: the thread stays where the scheduler put it.
    pub fn place_current_thread(_idx: usize) -> bool {
        false
    }

    /// Unavailable on this platform.
    ///
    /// # Safety
    ///
    /// Trivially safe: always returns `None`.
    pub unsafe fn map_shared(_fd: i32, _len: usize) -> Option<*mut u8> {
        None
    }

    /// No-op fallback.
    ///
    /// # Safety
    ///
    /// Trivially safe: does nothing.
    pub unsafe fn unmap(_ptr: *mut u8, _len: usize) {}

    /// True when shared file mappings are available on this platform.
    pub const fn shared_mappings_available() -> bool {
        false
    }
}

pub use imp::{
    allowed_cpus, map_shared, pin_current_thread, place_current_thread, set_affinity,
    shared_mappings_available, unmap,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_reports_a_verdict_without_crashing() {
        // Pinning addresses the allowed set, so it works even in
        // cpuset-restricted containers; elsewhere it is a no-op.
        let saved = allowed_cpus();
        let ok = pin_current_thread(0);
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert!(!saved.is_empty(), "Linux must report an affinity mask");
            assert!(ok, "pinning to the first allowed CPU must succeed");
            assert_eq!(
                allowed_cpus().len(),
                1,
                "after pinning only one CPU is allowed"
            );
            // Restore the saved mask so this thread is not left pinned for
            // any test that may later run on it.
            assert!(set_affinity(&saved), "restoring the saved mask");
            assert_eq!(allowed_cpus(), saved);
        } else {
            assert!(!ok);
            assert!(allowed_cpus().is_empty());
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn placing_moves_the_thread_and_keeps_its_affinity_mask() {
        fn current_cpu() -> usize {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            // Field 39, counted from after the parenthesised command name.
            let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
            after_comm.split(' ').nth(36).unwrap().parse().unwrap()
        }
        let saved = allowed_cpus();
        if saved.len() < 2 {
            assert!(!place_current_thread(1), "nowhere to move to");
            return;
        }
        for (idx, &cpu) in saved.iter().enumerate().take(4) {
            // The thread is free to be moved again the moment it is placed,
            // so a busy machine gets a few attempts.
            let landed = (0..5).any(|_| {
                assert!(place_current_thread(idx + saved.len()), "wraps round");
                assert_eq!(allowed_cpus(), saved, "the mask is left as it was");
                current_cpu() == cpu
            });
            assert!(landed, "never observed on allowed CPU #{idx} ({cpu})");
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn shared_mapping_round_trips_through_the_file() {
        use std::io::{Read, Seek, SeekFrom};
        use std::os::fd::AsRawFd;
        let mut path = std::env::temp_dir();
        path.push(format!("hornet-sys-map-{}", std::process::id()));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(4096).unwrap();
        let ptr = unsafe { map_shared(file.as_raw_fd(), 4096) }.expect("mmap");
        unsafe {
            ptr.write(0xAB);
            ptr.add(100).write(0xCD);
        }
        let mut buf = [0u8; 101];
        file.seek(SeekFrom::Start(0)).unwrap();
        file.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], 0xAB);
        assert_eq!(buf[100], 0xCD);
        // A second mapping of the same file sees the same bytes.
        let ptr2 = unsafe { map_shared(file.as_raw_fd(), 4096) }.expect("second mmap");
        assert_eq!(unsafe { ptr2.read() }, 0xAB);
        unsafe {
            unmap(ptr, 4096);
            unmap(ptr2, 4096);
        }
        let _ = std::fs::remove_file(&path);
    }
}
