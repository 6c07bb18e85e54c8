//! Read-only memory mapping for zero-copy frozen-store loading.
//!
//! This is the **only** module in the workspace allowed to contain
//! `unsafe` code (the crate root carries `deny(unsafe_code)` with an
//! `allow` on this module, and every other crate is
//! `forbid(unsafe_code)`). It binds `mmap`/`munmap` directly via
//! `extern "C"` — std already links libc on every supported target, so
//! no new dependency is introduced and the workspace stays
//! offline-buildable.
//!
//! On little-endian 64-bit Linux, [`map_readonly`] maps a store file
//! `PROT_READ` / `MAP_PRIVATE` and hands back a [`MapRegion`] whose typed
//! column views back a mapped [`super::FrozenAdsSet`]. Replicas mapping
//! the same shard file share its pages through the kernel page cache,
//! and a warm restart touches no column bytes at all until they are
//! queried. On every other platform [`map_readonly`] returns `Ok(None)`
//! and callers fall back to the buffered copying loader — behaviour is
//! identical, only cold-start cost differs.
//!
//! # Safety model
//!
//! * The mapping is created read-only and never remapped, so the byte
//!   region is valid and immutable for the lifetime of the [`MapRegion`]
//!   that owns it; `munmap` runs exactly once, on drop.
//! * Typed views ([`MapRegion::u32_slice`], [`MapRegion::f64_slice`])
//!   check bounds and alignment *before* constructing a slice and return
//!   `None` otherwise — no unchecked pointer arithmetic escapes this
//!   module. `u32` and `f64` accept every bit pattern, so reinterpreting
//!   checked, aligned, in-bounds file bytes is sound.
//! * A view reads the file's bytes in the host's byte order, and store
//!   files are little-endian: the `cfg` gate on the `imp` module
//!   therefore requires `target_endian = "little"`. A big-endian host
//!   gets the uninhabited fallback and so takes the buffered loader,
//!   which decodes every element with `from_le_bytes`.
//! * As with any file-backed mapping, truncating the underlying file
//!   while it is mapped can raise `SIGBUS` on access. Serving
//!   deployments must replace store files atomically (write + rename),
//!   never truncate in place; the loader re-verifies checksums on
//!   (re)load, not per access.

#![deny(unsafe_op_in_unsafe_fn)]

/// An owned, read-only, file-backed memory mapping.
///
/// On platforms without mmap support this type is uninhabited (its
/// `imp::RawMap` is an empty enum): it can never be constructed, and its
/// methods are statically unreachable — which lets `frozen.rs` name a
/// region and stay `cfg`-free.
#[derive(Debug)]
pub(crate) struct MapRegion {
    inner: imp::RawMap,
}

impl MapRegion {
    /// The complete mapped file as a byte slice.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        self.inner.bytes()
    }

    /// A `count`-element `u32` view starting `off` bytes into the
    /// mapping, or `None` if it would be out of bounds or misaligned.
    #[inline]
    pub(crate) fn u32_slice(&self, off: usize, count: usize) -> Option<&[u32]> {
        self.typed_slice::<u32>(off, count)
    }

    /// A `count`-element `f64` view starting `off` bytes into the
    /// mapping, or `None` if it would be out of bounds or misaligned.
    /// (`f64` has no invalid bit patterns; values round-trip through
    /// `f64::to_bits`, so the view is bitwise-lossless.)
    #[inline]
    pub(crate) fn f64_slice(&self, off: usize, count: usize) -> Option<&[f64]> {
        self.typed_slice::<f64>(off, count)
    }

    /// Shared checked reinterpret: bounds, overflow, and alignment are
    /// all verified before any pointer is formed.
    ///
    /// `T` is only ever `u32` or `f64` (private method), both of which
    /// are plain-old-data types valid for every bit pattern.
    #[inline]
    fn typed_slice<T>(&self, off: usize, count: usize) -> Option<&[T]> {
        let bytes = self.bytes();
        let need = count.checked_mul(std::mem::size_of::<T>())?;
        let end = off.checked_add(need)?;
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes[off..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        // SAFETY: `ptr` points `off` bytes into a live read-only mapping
        // of at least `end` bytes (bounds checked above), is aligned for
        // `T` (checked above), and `T` is POD (u32/f64: every bit
        // pattern valid). The mapping is immutable and outlives the
        // returned slice, whose lifetime is tied to `&self`.
        Some(unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), count) })
    }
}

/// Maps `file` read-only in its entirety.
///
/// Returns `Ok(None)` when the platform has no mmap binding, when the
/// file is empty, or when the `mmap` syscall itself fails (e.g. address
/// space exhaustion) — callers treat `None` as "use the buffered
/// copying loader", so mapping is a pure fast path, never a new failure
/// mode. Only pre-map I/O errors (`metadata`) are surfaced as `Err`.
pub(crate) fn map_readonly(file: &std::fs::File) -> std::io::Result<Option<MapRegion>> {
    let len = file.metadata()?.len();
    if len == 0 || len > usize::MAX as u64 {
        return Ok(None);
    }
    Ok(imp::RawMap::map(file, len as usize).map(|inner| MapRegion { inner }))
}

#[cfg(not(all(
    target_os = "linux",
    target_pointer_width = "64",
    target_endian = "little"
)))]
mod imp {
    //! No binding on this target: a mapping can never exist.

    #[derive(Debug)]
    pub(super) enum RawMap {}

    impl RawMap {
        pub(super) fn map(_file: &std::fs::File, _len: usize) -> Option<RawMap> {
            None
        }

        pub(super) fn bytes(&self) -> &[u8] {
            match *self {}
        }
    }
}

#[cfg(all(
    target_os = "linux",
    target_pointer_width = "64",
    target_endian = "little"
))]
mod imp {
    //! The raw little-endian 64-bit Linux `mmap`/`munmap` binding.

    use std::os::unix::io::AsRawFd;

    // 64-bit Linux ABI types and constants (asm-generic/mman-common.h).
    // Fixed here rather than pulled from a crate: the workspace builds
    // offline and std already links libc, so declaring the two symbols
    // is all that is needed.
    type CInt = i32;
    type OffT = i64;

    const PROT_READ: CInt = 0x1;
    const MAP_PRIVATE: CInt = 0x02;
    const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: CInt,
            flags: CInt,
            fd: CInt,
            offset: OffT,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> CInt;
    }

    /// A live `mmap(2)` region; unmapped exactly once on drop.
    #[derive(Debug)]
    pub(super) struct RawMap {
        ptr: std::ptr::NonNull<u8>,
        len: usize,
    }

    // SAFETY: the region is read-only for its whole lifetime (PROT_READ,
    // never remapped), so shared references from any thread observe
    // immutable memory; the kernel mapping is process-wide, not
    // thread-affine. Drop (munmap) takes `&mut self`, so it cannot race
    // reads through `&self`.
    unsafe impl Send for RawMap {}
    // SAFETY: as above — `&RawMap` only exposes read access to memory no
    // safe code can mutate.
    unsafe impl Sync for RawMap {}

    impl RawMap {
        /// Maps `len` bytes of `file` read-only, or `None` if the
        /// syscall fails (callers fall back to buffered reads).
        pub(super) fn map(file: &std::fs::File, len: usize) -> Option<RawMap> {
            debug_assert!(len > 0, "zero-length mappings are invalid");
            // SAFETY: `fd` is a live file descriptor borrowed from
            // `file` for the duration of the call; `len > 0`; a NULL
            // addr hint with PROT_READ|MAP_PRIVATE is the portable
            // read-only mapping request and cannot clobber existing
            // mappings. The result is checked against MAP_FAILED before
            // use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return None;
            }
            Some(RawMap {
                ptr: std::ptr::NonNull::new(ptr.cast::<u8>())?,
                len,
            })
        }

        #[inline]
        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is the live mapping of exactly `len` bytes
            // established in `map` and not yet unmapped (drop is the
            // only unmap site and takes `&mut self`).
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            // SAFETY: `(ptr, len)` is exactly the region returned by the
            // successful `mmap` in `map`, unmapped here exactly once.
            // munmap failure (impossible for a valid region) is ignored:
            // there is no recovery and the address space stays usable.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_and_reads_back_file_bytes() {
        let path = std::env::temp_dir().join("adsketch_mmap_unit.bin");
        let payload: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(&payload))
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        match map_readonly(&file).unwrap() {
            Some(region) => {
                assert_eq!(region.bytes(), payload.as_slice());
                // Page-aligned base: typed views at aligned offsets work.
                let words = region.u32_slice(0, 4096).unwrap();
                assert_eq!(words[7], 7);
                assert!(region.u32_slice(2, 1).is_none(), "misaligned offset");
                assert!(region.u32_slice(0, 4097).is_none(), "out of bounds");
                assert!(region.f64_slice(4, 1).is_none(), "8-misaligned offset");
                assert!(region.f64_slice(8, 2047).is_some());
            }
            None => {
                if cfg!(all(
                    target_os = "linux",
                    target_pointer_width = "64",
                    target_endian = "little"
                )) {
                    panic!("mmap must be available on little-endian 64-bit Linux");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_fall_back() {
        let path = std::env::temp_dir().join("adsketch_mmap_empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(map_readonly(&file).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }
}
