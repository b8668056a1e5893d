//! Raw volume image: binary serialization and the independent MFT parser.
//!
//! The writer emits one record per MFT slot (free slots included, flagged
//! not-in-use, as on a real volume). Crucially it does **not** emit directory
//! child indexes: the parser reconstructs the tree purely from each record's
//! parent reference, exactly like a forensic MFT sweep. This keeps the
//! low-level scan's code path disjoint from the live driver's lookup path,
//! which is what makes the cross-view diff meaningful.

use crate::record::FileAttributes;
use crate::volume::NtfsVolume;
use std::collections::HashMap;
use std::fmt;
use strider_nt_core::{FileRecordNumber, NtPath, NtString, RenderedPath, Tick};
use strider_support::bytes::{Buf, BufMut};
use strider_support::fault::{Defect, DefectKind, Salvaged};

const MAGIC: &[u8; 8] = b"SNTFS1\0\0";
const VERSION: u32 = 1;

/// Serializes a live volume to its raw image bytes, in one allocation of
/// exactly the image's length.
pub(crate) fn write_image(vol: &NtfsVolume) -> Vec<u8> {
    let len = image_len(vol);
    let mut buf = Vec::with_capacity(len);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let label = vol.label().as_bytes();
    buf.put_u16_le(label.len() as u16);
    buf.put_slice(label);
    buf.put_u64_le(vol.slot_count() as u64);
    for slot in 0..vol.slot_count() {
        match vol.record(FileRecordNumber(slot as u64)) {
            None => buf.put_u8(0),
            Some(rec) => {
                buf.put_u8(1);
                buf.put_u64_le(rec.number.0);
                buf.put_u16_le(rec.sequence);
                buf.put_u64_le(rec.std_info.created.0);
                buf.put_u64_le(rec.std_info.modified.0);
                buf.put_u32_le(rec.std_info.attributes.0);
                buf.put_u64_le(rec.parent.0);
                put_name(&mut buf, &rec.name);
                buf.put_u16_le(rec.streams.len() as u16);
                for s in &rec.streams {
                    match &s.name {
                        None => buf.put_u8(0),
                        Some(n) => {
                            buf.put_u8(1);
                            put_name(&mut buf, n);
                        }
                    }
                    buf.put_u64_le(s.data.len() as u64);
                    buf.put_slice(&s.data);
                }
            }
        }
    }
    debug_assert_eq!(buf.len(), len, "image_len must match the writer");
    buf
}

/// The exact length of [`write_image`]'s output.
fn image_len(vol: &NtfsVolume) -> usize {
    let name_len = |n: &NtString| 2 + 2 * n.len();
    let header = MAGIC.len() + 4 + 2 + vol.label().len() + 8;
    let free_slots = vol.slot_count() - vol.record_count();
    let records: usize = vol
        .iter()
        .map(|rec| {
            let streams: usize = rec
                .streams
                .iter()
                .map(|s| 1 + s.name.as_ref().map_or(0, name_len) + 8 + s.data.len())
                .sum();
            1 + 8 + 2 + 8 + 8 + 4 + 8 + name_len(&rec.name) + 2 + streams
        })
        .sum();
    header + free_slots + records
}

fn put_name(buf: &mut Vec<u8>, name: &NtString) {
    buf.put_u16_le(name.len() as u16);
    for &u in name.units() {
        buf.put_u16_le(u);
    }
}

/// Error produced while parsing a raw volume image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image is shorter than the structure it claims to hold.
    Truncated {
        /// What was being parsed when the bytes ran out.
        context: &'static str,
    },
    /// The magic header is wrong.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated { context } => {
                write!(f, "image truncated while reading {context}")
            }
            ImageError::BadMagic => write!(f, "bad image magic"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Maps a strict-parse error to the workspace-wide salvage vocabulary;
/// `offset` is where parsing stood when the damage surfaced and `total` the
/// image length, so `bytes_lost` is the unreadable tail.
fn defect_for(e: &ImageError, offset: u64, total: u64) -> Defect {
    let (kind, context) = match e {
        ImageError::Truncated { context } => (DefectKind::Truncated, *context),
        ImageError::BadMagic => (DefectKind::BadMagic, "image magic"),
        ImageError::BadVersion(_) => (DefectKind::BadVersion, "image version"),
    };
    Defect::new(kind, offset, total.saturating_sub(offset), context)
}

/// One file entry recovered from the raw image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFileEntry {
    /// MFT record number.
    pub number: FileRecordNumber,
    /// Record sequence number.
    pub sequence: u16,
    /// Creation tick.
    pub created: Tick,
    /// Last-modified tick.
    pub modified: Tick,
    /// Attribute flags.
    pub attributes: FileAttributes,
    /// Parent record number.
    pub parent: FileRecordNumber,
    /// The counted name.
    pub name: NtString,
    /// Total data bytes across streams.
    pub data_len: u64,
    /// Names of alternate data streams.
    pub ads_names: Vec<NtString>,
}

impl RawFileEntry {
    /// Whether the entry is a directory.
    pub fn is_directory(&self) -> bool {
        self.attributes.contains(FileAttributes::DIRECTORY)
    }
}

/// A parsed raw volume image: the truth the low-level file scan works from.
///
/// # Examples
///
/// ```
/// use strider_ntfs::{NtfsVolume, VolumeImage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vol = NtfsVolume::new("C:");
/// vol.create_file(&"C:\\a.txt".parse()?, b"hi")?;
/// let raw = VolumeImage::parse(&vol.to_image())?;
/// assert_eq!(raw.entries().len(), 2); // root + file
/// assert_eq!(raw.file_paths().len(), 1); // just the file
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VolumeImage {
    label: String,
    entries: Vec<RawFileEntry>,
    image_len: u64,
}

impl VolumeImage {
    /// Parses raw image bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] if the bytes are truncated or the header is
    /// not a supported volume image.
    pub fn parse(bytes: &[u8]) -> Result<Self, ImageError> {
        let mut buf = bytes;
        let image_len = bytes.len() as u64;
        let (label, slot_count) = parse_header(&mut buf)?;
        let mut entries = Vec::new();
        for _ in 0..slot_count {
            if let Some(entry) = parse_entry(&mut buf)? {
                entries.push(entry);
            }
        }
        Ok(Self {
            label,
            entries,
            image_len,
        })
    }

    /// Best-effort parse for damaged images. MFT records are written
    /// back-to-back with no framing, so a record that fails to parse makes
    /// everything after it unaddressable: salvage keeps every entry up to
    /// the damage, records one [`Defect`] locating it and counting the
    /// unreadable tail, and returns. Never panics and never errors; an
    /// image damaged in the header salvages to an empty entry list.
    pub fn parse_salvage(bytes: &[u8]) -> Salvaged<Self> {
        let image_len = bytes.len() as u64;
        let mut buf = bytes;
        let (label, slot_count) = match parse_header(&mut buf) {
            Ok(header) => header,
            Err(e) => {
                let offset = image_len - buf.remaining() as u64;
                return Salvaged {
                    value: Self {
                        label: String::new(),
                        entries: Vec::new(),
                        image_len,
                    },
                    defects: vec![defect_for(&e, offset, image_len)],
                };
            }
        };
        let mut entries = Vec::new();
        let mut defects = Vec::new();
        for _ in 0..slot_count {
            let offset = image_len - buf.remaining() as u64;
            match parse_entry(&mut buf) {
                Ok(Some(entry)) => entries.push(entry),
                Ok(None) => {}
                Err(e) => {
                    defects.push(defect_for(&e, offset, image_len));
                    break;
                }
            }
        }
        Salvaged {
            value: Self {
                label,
                entries,
                image_len,
            },
            defects,
        }
    }

    /// The volume label recovered from the image.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total size of the parsed image in bytes (drives the cost model's
    /// sequential-read estimate).
    pub fn image_len(&self) -> u64 {
        self.image_len
    }

    /// All in-use entries, including the root directory.
    pub fn entries(&self) -> &[RawFileEntry] {
        &self.entries
    }

    /// Reconstructs full paths for every *file* entry (directories excluded)
    /// by chasing parent references — the forensic MFT sweep. Each path
    /// comes rendered: its display text and its case-folded key.
    ///
    /// Entries whose parent chain is broken or cyclic are reported under the
    /// synthetic root `<orphaned>` rather than dropped: an orphaned-but-in-use
    /// record is exactly the kind of anomaly a detector must not hide.
    pub fn file_paths(&self) -> Vec<(RenderedPath, &RawFileEntry)> {
        self.paths_internal(false)
    }

    /// Reconstructs full paths for every entry including directories.
    pub fn all_paths(&self) -> Vec<(RenderedPath, &RawFileEntry)> {
        self.paths_internal(true)
    }

    /// Renders each parent directory once, memoised by record number; each
    /// entry is then its parent's rendering joined with its own name.
    fn paths_internal(&self, include_dirs: bool) -> Vec<(RenderedPath, &RawFileEntry)> {
        let by_number: HashMap<u64, &RawFileEntry> =
            self.entries.iter().map(|e| (e.number.0, e)).collect();
        let mut dirs = HashMap::new();
        dirs.insert(
            0,
            DirPath {
                path: RenderedPath::root(&self.label),
                cyclic: false,
            },
        );
        let mut out = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            if entry.number.0 == 0 {
                continue; // root itself
            }
            if entry.is_directory() && !include_dirs {
                continue;
            }
            let parent = self.dir_path(entry.parent.0, &by_number, &mut dirs);
            out.push((parent.join(&entry.name), entry));
        }
        out
    }

    /// The rendered path of directory record `dir`, as its children see it.
    /// Walks up to the nearest ancestor already rendered (the root, a
    /// missing record, or a memoised directory), then renders back down,
    /// memoising each directory on the way.
    fn dir_path<'m>(
        &self,
        dir: u64,
        by_number: &HashMap<u64, &RawFileEntry>,
        dirs: &'m mut HashMap<u64, DirPath>,
    ) -> &'m RenderedPath {
        let mut pending = Vec::new();
        let mut cur = dir;
        let cyclic = loop {
            if let Some(known) = dirs.get(&cur) {
                break known.cyclic;
            }
            let Some(&e) = by_number.get(&cur) else {
                dirs.insert(
                    cur,
                    DirPath {
                        path: RenderedPath::root(ORPHANED_ROOT),
                        cyclic: false,
                    },
                );
                break false;
            };
            pending.push(e);
            // More hops than records: the chain has entered a cycle.
            if pending.len() > self.entries.len() {
                break true;
            }
            cur = e.parent.0;
        };
        for e in pending.into_iter().rev() {
            if dirs.contains_key(&e.number.0) {
                continue; // a cycle revisits its records
            }
            let path = if cyclic {
                self.cyclic_dir_path(e, by_number)
            } else {
                dirs[&e.parent.0].path.join(&e.name)
            };
            dirs.insert(e.number.0, DirPath { path, cyclic });
        }
        &dirs[&dir].path
    }

    /// A directory whose parent chain never reaches the root is rendered
    /// by the hop guard: `<orphaned>` followed by the names met in
    /// `entries.len() + 1` hops up from it. Such a rendering does not
    /// compose (a child's is not its parent's plus one name), so every
    /// record whose chain runs into a cycle is rendered this way.
    fn cyclic_dir_path(
        &self,
        dir: &RawFileEntry,
        by_number: &HashMap<u64, &RawFileEntry>,
    ) -> RenderedPath {
        let mut names = Vec::with_capacity(self.entries.len() + 1);
        let mut cur = Some(dir);
        while let Some(e) = cur.filter(|_| names.len() <= self.entries.len()) {
            names.push(e.name.clone());
            cur = by_number.get(&e.parent.0).copied();
        }
        names.reverse();
        NtPath::from_components(ORPHANED_ROOT, names).render()
    }
}

/// The synthetic root of entries whose parent chain is broken or cyclic.
const ORPHANED_ROOT: &str = "<orphaned>";

/// A memoised directory rendering; `cyclic` marks a chain that runs into
/// a parent cycle, whose children must be rendered by the hop guard too.
struct DirPath {
    path: RenderedPath,
    cyclic: bool,
}

/// Reads the image header, returning the volume label and slot count. All
/// reads are length-checked.
fn parse_header(buf: &mut &[u8]) -> Result<(String, u64), ImageError> {
    if buf.remaining() < 8 {
        return Err(ImageError::Truncated { context: "magic" });
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = get_u32(buf, "version")?;
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    let label_len = get_u16(buf, "label length")? as usize;
    if buf.remaining() < label_len {
        return Err(ImageError::Truncated { context: "label" });
    }
    let (label_bytes, rest) = buf.split_at(label_len);
    *buf = rest;
    let label = String::from_utf8_lossy(label_bytes).into_owned();
    let slot_count = get_u64(buf, "slot count")?;
    Ok((label, slot_count))
}

/// Reads one MFT slot; `None` is a free (not-in-use) slot. Every length and
/// offset field is checked against the bytes actually remaining before it is
/// honored, so arbitrary field values cannot cause out-of-bounds reads or
/// oversized allocations.
fn parse_entry(buf: &mut &[u8]) -> Result<Option<RawFileEntry>, ImageError> {
    let in_use = get_u8(buf, "in-use flag")?;
    if in_use == 0 {
        return Ok(None);
    }
    let number = FileRecordNumber(get_u64(buf, "record number")?);
    let sequence = get_u16(buf, "sequence")?;
    let created = Tick(get_u64(buf, "created")?);
    let modified = Tick(get_u64(buf, "modified")?);
    let attributes = FileAttributes(get_u32(buf, "attributes")?);
    let parent = FileRecordNumber(get_u64(buf, "parent")?);
    let name = get_name(buf, "name")?;
    let stream_count = get_u16(buf, "stream count")?;
    let mut data_len = 0u64;
    let mut ads_names = Vec::new();
    for _ in 0..stream_count {
        let named = get_u8(buf, "stream name flag")?;
        if named == 1 {
            ads_names.push(get_name(buf, "stream name")?);
        }
        let len = get_u64(buf, "stream length")?;
        if (buf.remaining() as u64) < len {
            return Err(ImageError::Truncated {
                context: "stream data",
            });
        }
        buf.advance(len as usize);
        data_len += len;
    }
    Ok(Some(RawFileEntry {
        number,
        sequence,
        created,
        modified,
        attributes,
        parent,
        name,
        data_len,
        ads_names,
    }))
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, ImageError> {
    if buf.remaining() < 1 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8], context: &'static str) -> Result<u16, ImageError> {
    if buf.remaining() < 2 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, ImageError> {
    if buf.remaining() < 4 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8], context: &'static str) -> Result<u64, ImageError> {
    if buf.remaining() < 8 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u64_le())
}

fn get_name(buf: &mut &[u8], context: &'static str) -> Result<NtString, ImageError> {
    let len = get_u16(buf, context)? as usize;
    if buf.remaining() < len * 2 {
        return Err(ImageError::Truncated { context });
    }
    let units: Vec<u16> = (0..len).map(|_| buf.get_u16_le()).collect();
    Ok(NtString::from(units))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_nt_core::NtPath;

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    fn sample_volume() -> NtfsVolume {
        let mut v = NtfsVolume::new("C:");
        v.mkdir_p(&p("C:\\windows\\system32")).unwrap();
        v.create_file(&p("C:\\windows\\system32\\hxdef100.exe"), b"MZ")
            .unwrap();
        v.create_file(&p("C:\\windows\\system32\\hxdef100.ini"), b"[H]")
            .unwrap();
        v
    }

    #[test]
    fn roundtrip_preserves_every_file() {
        let v = sample_volume();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        assert_eq!(raw.label(), "C:");
        let paths: Vec<String> = raw
            .file_paths()
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(
            paths,
            vec![
                "C:\\windows\\system32\\hxdef100.exe".to_string(),
                "C:\\windows\\system32\\hxdef100.ini".to_string(),
            ]
        );
    }

    #[test]
    fn all_paths_includes_directories() {
        let v = sample_volume();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        let paths: Vec<String> = raw.all_paths().iter().map(|(p, _)| p.to_string()).collect();
        assert!(paths.contains(&"C:\\windows".to_string()));
        assert!(paths.contains(&"C:\\windows\\system32".to_string()));
    }

    #[test]
    fn free_slots_survive_roundtrip_silently() {
        let mut v = sample_volume();
        v.create_file(&p("C:\\temp"), b"x").unwrap();
        v.remove_file(&p("C:\\temp")).unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        // Free slot serialized as not-in-use, not reported.
        assert_eq!(raw.file_paths().len(), 2);
    }

    #[test]
    fn metadata_roundtrips() {
        let mut v = NtfsVolume::new("D:");
        v.set_clock(Tick(42));
        v.create_file_with(&p("D:\\h.txt"), b"abc", FileAttributes::HIDDEN)
            .unwrap();
        v.add_stream(&p("D:\\h.txt"), "extra", b"zz").unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        let (_, e) = &raw.file_paths()[0];
        assert_eq!(e.created, Tick(42));
        assert!(e.attributes.contains(FileAttributes::HIDDEN));
        assert_eq!(e.data_len, 5);
        assert_eq!(e.ads_names.len(), 1);
        assert_eq!(e.ads_names[0].to_win32_lossy(), "extra");
    }

    #[test]
    fn salvage_on_clean_image_matches_strict() {
        let v = sample_volume();
        let bytes = v.to_image();
        let strict = VolumeImage::parse(&bytes).unwrap();
        let salvaged = VolumeImage::parse_salvage(&bytes);
        assert!(salvaged.is_clean());
        assert_eq!(salvaged.value.entries(), strict.entries());
        assert_eq!(salvaged.value.label(), strict.label());
    }

    #[test]
    fn salvage_keeps_entries_before_the_damage() {
        let v = sample_volume();
        let bytes = v.to_image();
        let cut = bytes.len() - 10;
        assert!(VolumeImage::parse(&bytes[..cut]).is_err());
        let salvaged = VolumeImage::parse_salvage(&bytes[..cut]);
        assert_eq!(salvaged.defects.len(), 1);
        assert_eq!(
            salvaged.defects[0].kind,
            strider_support::fault::DefectKind::Truncated
        );
        assert!(salvaged.defects[0].bytes_lost > 0);
        // Root + system32 tree is 4 entries; the cut only loses the tail.
        assert!(!salvaged.value.entries().is_empty());
        assert!(salvaged.value.entries().len() < 5);
    }

    #[test]
    fn salvage_of_garbage_header_is_empty_with_defect() {
        let salvaged = VolumeImage::parse_salvage(b"NOTANIMG________");
        assert!(salvaged.value.entries().is_empty());
        assert_eq!(
            salvaged.defects[0].kind,
            strider_support::fault::DefectKind::BadMagic
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            VolumeImage::parse(b"NOTANIMG________"),
            Err(ImageError::BadMagic)
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let v = sample_volume();
        let img = v.to_image();
        let cut = &img[..img.len() - 3];
        assert!(matches!(
            VolumeImage::parse(cut),
            Err(ImageError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            VolumeImage::parse(&[]),
            Err(ImageError::Truncated { .. })
        ));
    }

    #[test]
    fn win32_illegal_names_round_trip() {
        let mut v = NtfsVolume::new("C:");
        v.create_file(&p("C:\\update."), b"x").unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        assert_eq!(raw.file_paths()[0].0.to_string(), "C:\\update.");
    }

    /// The path reconstruction as it was before directory prefixes were
    /// memoised: every entry chases its whole parent chain. Kept as the
    /// oracle for the memoised walk.
    fn legacy_paths(raw: &VolumeImage, include_dirs: bool) -> Vec<(NtPath, FileRecordNumber)> {
        let by_number: HashMap<u64, &RawFileEntry> =
            raw.entries.iter().map(|e| (e.number.0, e)).collect();
        let mut out = Vec::new();
        for entry in &raw.entries {
            if entry.number.0 == 0 || (entry.is_directory() && !include_dirs) {
                continue;
            }
            let mut parts = vec![entry.name.clone()];
            let mut cur = entry.parent;
            let mut hops = 0usize;
            let mut broken = false;
            while cur.0 != 0 {
                match by_number.get(&cur.0) {
                    Some(p) => {
                        parts.push(p.name.clone());
                        cur = p.parent;
                    }
                    None => {
                        broken = true;
                        break;
                    }
                }
                hops += 1;
                if hops > raw.entries.len() {
                    broken = true;
                    break;
                }
            }
            parts.reverse();
            let root = if broken { "<orphaned>" } else { &raw.label };
            out.push((NtPath::from_components(root, parts), entry.number));
        }
        out
    }

    fn assert_matches_legacy(raw: &VolumeImage) {
        for include_dirs in [false, true] {
            let got: Vec<(RenderedPath, FileRecordNumber)> = raw
                .paths_internal(include_dirs)
                .into_iter()
                .map(|(p, e)| (p, e.number))
                .collect();
            let want: Vec<(RenderedPath, FileRecordNumber)> = legacy_paths(raw, include_dirs)
                .into_iter()
                .map(|(p, n)| (p.render(), n))
                .collect();
            assert_eq!(got, want, "include_dirs = {include_dirs}");
        }
    }

    /// A hand-made image: `(number, parent, name, is_dir)` per in-use
    /// record, in slot order, with no data streams.
    fn crafted_image(records: &[(u64, u64, &str, bool)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u16_le(2);
        buf.put_slice(b"C:");
        buf.put_u64_le(records.len() as u64);
        for &(number, parent, name, is_dir) in records {
            let attributes = if is_dir {
                FileAttributes::DIRECTORY
            } else {
                FileAttributes::NORMAL
            };
            buf.put_u8(1);
            buf.put_u64_le(number);
            buf.put_u16_le(1);
            buf.put_u64_le(0);
            buf.put_u64_le(0);
            buf.put_u32_le(attributes.0);
            buf.put_u64_le(parent);
            put_name(&mut buf, &NtString::from(name));
            buf.put_u16_le(0);
        }
        buf
    }

    #[test]
    fn memoised_walk_matches_the_full_chain_walk() {
        let mut v = sample_volume();
        v.mkdir_p(&p("C:\\Program Files\\Vendor\\App")).unwrap();
        v.create_file(&p("C:\\Program Files\\Vendor\\App\\App.EXE"), b"MZ")
            .unwrap();
        v.create_file(&p("C:\\update."), b"x").unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        assert_matches_legacy(&raw);
    }

    #[test]
    fn missing_parents_are_reported_under_orphaned() {
        let raw = VolumeImage::parse(&crafted_image(&[
            (0, 0, "C:", true),
            (1, 0, "windows", true),
            (2, 1, "ok.txt", false),
            (3, 99, "lost.txt", false),
            (4, 77, "stray", true),
            (5, 4, "inner.log", false),
        ]))
        .unwrap();
        let files: Vec<String> = raw
            .file_paths()
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(
            files,
            [
                "C:\\windows\\ok.txt",
                "<orphaned>\\lost.txt",
                "<orphaned>\\stray\\inner.log"
            ]
        );
        assert_matches_legacy(&raw);
    }

    #[test]
    fn parent_cycles_are_reported_under_orphaned_and_the_walk_terminates() {
        // 10 and 11 are each other's parent; 12 hangs off the cycle and 13
        // off 12, so both lead into it without being part of it.
        let records = [
            (0, 0, "C:", true),
            (10, 11, "a", true),
            (11, 10, "b", true),
            (12, 10, "c", true),
            (13, 12, "x.txt", false),
            (14, 14, "self", true),
            (15, 14, "y.txt", false),
        ];
        let raw = VolumeImage::parse(&crafted_image(&records)).unwrap();
        let n = raw.entries().len();
        let files = raw.file_paths();
        assert_eq!(files.len(), 2);
        for (path, _) in &files {
            assert!(path.display.starts_with("<orphaned>\\"), "{path}");
        }
        // The hop guard stops after `entries.len() + 1` hops: below the
        // synthetic root come n + 1 ancestor names, then the file's own.
        let x = &files[0].0;
        assert_eq!(x.display.split('\\').count(), 1 + (n + 1) + 1);
        assert!(x.display.ends_with("\\a\\c\\x.txt"), "{x}");
        let y = &files[1].0;
        assert_eq!(
            y.display,
            format!("<orphaned>{}\\y.txt", "\\self".repeat(n + 1))
        );
        assert_matches_legacy(&raw);
    }
}
