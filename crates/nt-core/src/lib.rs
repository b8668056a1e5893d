//! Shared vocabulary types for the Strider GhostBuster reproduction.
//!
//! Every substrate crate in the workspace (the NTFS volume, the Registry
//! hives, the simulated kernel, the layered API chain) speaks in terms of the
//! types defined here:
//!
//! * [`NtString`] — a *counted* UTF-16 string, the native NT name
//!   representation. Unlike C strings it may legally contain embedded `NUL`
//!   characters, which is the root of one of the Registry-hiding tricks the
//!   paper describes (Section 3).
//! * [`NtPath`] — a backslash-separated path of [`NtString`] components with
//!   case-insensitive comparison, as NTFS and the Registry use.
//! * [`Tick`] — the simulation's logical clock. Scan gaps measured in ticks
//!   drive the paper's false-positive model.
//! * [`NtStatus`] — the status-code vocabulary returned by simulated APIs.
//! * [`IoStats`] — byte/seek accounting used by the scan-time cost model.
//!
//! # Examples
//!
//! ```
//! use strider_nt_core::{NtString, NtPath};
//!
//! let name = NtString::from("hxdef100.exe");
//! assert!(!name.contains_nul());
//!
//! let path: NtPath = "C:\\windows\\system32".parse().unwrap();
//! assert_eq!(path.components().len(), 2);
//! assert!(path.starts_with(&"c:\\WINDOWS".parse().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod io;
mod name;
mod path;
mod status;
mod time;

pub use io::IoStats;
pub use name::{NtString, Win32NameError};
pub use path::{NtPath, ParseNtPathError, RenderedPath, MAX_PATH};
pub use status::NtStatus;
pub use time::Tick;

/// A process identifier in the simulated kernel.
///
/// Newtype per C-NEWTYPE so that pids, tids and MFT record numbers cannot be
/// confused with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// A thread identifier in the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid {}", self.0)
    }
}

/// An MFT file-record number on a simulated NTFS volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileRecordNumber(pub u64);

impl std::fmt::Display for FileRecordNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mft #{}", self.0)
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(newtype Pid);
strider_support::impl_json!(newtype Tid);
strider_support::impl_json!(newtype FileRecordNumber);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_and_display() {
        assert_eq!(Pid(4).to_string(), "pid 4");
        assert_eq!(Tid(8).to_string(), "tid 8");
        assert_eq!(FileRecordNumber(5).to_string(), "mft #5");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Pid(1));
        s.insert(Pid(1));
        assert_eq!(s.len(), 1);
        assert!(Pid(1) < Pid(2));
    }
}
