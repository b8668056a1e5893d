//! The name and path renderers as they were before they were made
//! allocation-free, kept as the oracle the equivalence tests in
//! `properties.rs` compare the current ones against. Each function is the
//! old method body, rewritten as a free function over the public API.

use strider_nt_core::{NtPath, NtString, Win32NameError};

const RESERVED_DEVICE_NAMES: &[&str] = &[
    "CON", "PRN", "AUX", "NUL", "COM1", "COM2", "COM3", "COM4", "COM5", "COM6", "COM7", "COM8",
    "COM9", "LPT1", "LPT2", "LPT3", "LPT4", "LPT5", "LPT6", "LPT7", "LPT8", "LPT9",
];

const WIN32_ILLEGAL_CHARS: &[char] = &['<', '>', ':', '"', '/', '|', '?', '*'];

/// Old `NtString::to_display_string` (and, through it, `Display`).
pub fn to_display_string(name: &NtString) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, chunk) in name.units().split(|&u| u == 0).enumerate() {
        if i > 0 {
            out.push_str("\\0");
        }
        out.push_str(&String::from_utf16_lossy(chunk));
    }
    out
}

/// Old `NtString::fold_key`.
pub fn fold_key(name: &NtString) -> Vec<u16> {
    name.units()
        .iter()
        .map(|&u| match char::from_u32(u as u32) {
            Some(c) => c.to_ascii_lowercase() as u16,
            None => u,
        })
        .collect()
}

/// Old `NtString::eq_ignore_case`.
pub fn eq_ignore_case(a: &NtString, b: &NtString) -> bool {
    fold_key(a) == fold_key(b)
}

/// Old `NtString::validate_win32`.
pub fn validate_win32(name: &NtString) -> Result<(), Win32NameError> {
    if name.is_empty() {
        return Err(Win32NameError::Empty);
    }
    if name.units().contains(&0) {
        return Err(Win32NameError::EmbeddedNul);
    }
    let s = String::from_utf16_lossy(name.units());
    if let Some(c) = s.chars().find(|c| WIN32_ILLEGAL_CHARS.contains(c)) {
        return Err(Win32NameError::IllegalCharacter(c));
    }
    if let Some(c) = s.chars().find(|&c| (c as u32) < 0x20) {
        return Err(Win32NameError::ControlCharacter(c as u32));
    }
    if s.ends_with('.') || s.ends_with(' ') {
        return Err(Win32NameError::TrailingDotOrSpace);
    }
    let stem = s.split('.').next().unwrap_or("").to_ascii_uppercase();
    if RESERVED_DEVICE_NAMES.contains(&stem.as_str()) {
        return Err(Win32NameError::ReservedDeviceName(stem));
    }
    Ok(())
}

/// Old `NtPath::fold_key`.
pub fn path_fold_key(path: &NtPath) -> String {
    let mut key = path.root().to_ascii_lowercase();
    for c in path.components() {
        key.push('\\');
        for u in fold_key(c) {
            key.push(char::from_u32(u as u32).unwrap_or('\u{FFFD}'));
        }
    }
    key
}

/// Old `NtPath`'s `Display`.
pub fn path_to_string(path: &NtPath) -> String {
    let mut out = path.root().to_string();
    for c in path.components() {
        out.push('\\');
        out.push_str(&to_display_string(c));
    }
    out
}
