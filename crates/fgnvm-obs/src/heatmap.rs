//! SAG×CD tile occupancy and conflict heatmap.
//!
//! The paper's rook-placement model says two accesses to the same bank
//! proceed in parallel iff they share neither a subarray group (row of the
//! S×C grid) nor a column division (column). This observer reconstructs
//! that claim from the command stream: it keeps, per physical bank, a
//! busy-until clock for every SAG and every CD, and charges each issued
//! command's wait against the tile resources it had to serialize behind.
//! Cells aggregate over all banks, yielding one S×C grid per run.
//!
//! Occupancy windows: a read holds its SAG and CD until the end of its data
//! burst; a write holds them until device completion (including verify
//! retries), which is exactly the asymmetry the write-pausing machinery
//! exploits.

use crate::bank_map::BankMap;

/// Aggregated activity of one (SAG, CD) tile position across all banks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCell {
    /// Full-row activations targeting this tile.
    pub activations: u64,
    /// Row-buffer hits served from this tile.
    pub row_hits: u64,
    /// Partial (underfetch) activations.
    pub underfetches: u64,
    /// Writes committed to this tile.
    pub writes: u64,
    /// Commands that had to wait behind this tile's SAG or CD.
    pub conflicts: u64,
    /// Cycles those commands spent blocked on this tile's resources.
    pub conflict_cycles: u64,
    /// Cycles this tile was locked by an in-progress write.
    pub write_busy_cycles: u64,
}

#[derive(Debug, Clone, Default)]
struct ResourceClock {
    sag_busy_until: Vec<u64>,
    cd_busy_until: Vec<u64>,
}

/// S×C conflict/occupancy heatmap with per-bank resource clocks.
#[derive(Debug, Clone)]
pub struct TileHeatmap {
    sags: u32,
    cds: u32,
    cells: Vec<TileCell>,
    clocks: BankMap<ResourceClock>,
}

impl TileHeatmap {
    /// A zeroed heatmap for an S×C subdivided bank (use 1×1 for monolithic
    /// banks — the grid degenerates to whole-bank occupancy).
    pub fn new(sags: u32, cds: u32) -> Self {
        assert!(sags > 0 && cds > 0, "degenerate tile grid");
        TileHeatmap {
            sags,
            cds,
            cells: vec![TileCell::default(); (sags * cds) as usize],
            clocks: BankMap::default(),
        }
    }

    /// Grid dimensions `(sags, cds)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.sags, self.cds)
    }

    /// The cell at `(sag, cd)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn cell(&self, sag: u32, cd: u32) -> &TileCell {
        assert!(sag < self.sags && cd < self.cds, "tile out of grid");
        &self.cells[(sag * self.cds + cd) as usize]
    }

    /// All cells in row-major (sag, cd) order.
    pub fn cells(&self) -> &[TileCell] {
        &self.cells
    }

    /// Records one issued command.
    ///
    /// `arrival` and `at` bracket the request's wait; `data_end` /
    /// `completion` bound the occupancy window (reads release at
    /// `data_end`, writes at `completion`). Coordinates are clamped into
    /// the grid so a mis-sized observer degrades instead of panicking.
    #[allow(clippy::too_many_arguments)]
    pub fn on_command(
        &mut self,
        channel: u32,
        bank: u32,
        sag: u32,
        cd: u32,
        kind: &str,
        is_read: bool,
        arrival: u64,
        at: u64,
        data_end: u64,
        completion: u64,
    ) {
        let sag = sag.min(self.sags - 1);
        let cd = cd.min(self.cds - 1);
        let (sags, cds) = (self.sags as usize, self.cds as usize);
        let clock = self
            .clocks
            .get_or_insert_with((channel, bank), || ResourceClock {
                sag_busy_until: vec![0; sags],
                cd_busy_until: vec![0; cds],
            });
        let busy = clock.sag_busy_until[sag as usize].max(clock.cd_busy_until[cd as usize]);
        let held_until = if is_read { data_end } else { completion };
        let cell = &mut self.cells[(sag * self.cds + cd) as usize];
        match kind {
            "row-hit" => cell.row_hits += 1,
            "underfetch" => cell.underfetches += 1,
            "write" => cell.writes += 1,
            _ => cell.activations += 1,
        }
        if busy > arrival {
            // The request arrived while this tile's resources were held:
            // a rook conflict. Charge the overlap of its wait with the
            // busy window.
            cell.conflicts += 1;
            cell.conflict_cycles += busy.min(at).saturating_sub(arrival);
        }
        if !is_read {
            cell.write_busy_cycles += held_until.saturating_sub(at);
        }
        let s = &mut clock.sag_busy_until[sag as usize];
        *s = (*s).max(held_until);
        let c = &mut clock.cd_busy_until[cd as usize];
        *c = (*c).max(held_until);
    }

    /// Serializes as CSV, one row per (sag, cd) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "sag,cd,activations,row_hits,underfetches,writes,conflicts,conflict_cycles,write_busy_cycles\n",
        );
        for sag in 0..self.sags {
            for cd in 0..self.cds {
                let c = self.cell(sag, cd);
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{}\n",
                    sag,
                    cd,
                    c.activations,
                    c.row_hits,
                    c.underfetches,
                    c.writes,
                    c.conflicts,
                    c.conflict_cycles,
                    c.write_busy_cycles
                ));
            }
        }
        out
    }

    /// Serializes as a JSON object with dims and a row-major cell array.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = (0..self.sags)
            .flat_map(|sag| (0..self.cds).map(move |cd| (sag, cd)))
            .map(|(sag, cd)| {
                let c = self.cell(sag, cd);
                format!(
                    "{{\"sag\":{sag},\"cd\":{cd},\"activations\":{},\"row_hits\":{},\
                     \"underfetches\":{},\"writes\":{},\"conflicts\":{},\
                     \"conflict_cycles\":{},\"write_busy_cycles\":{}}}",
                    c.activations,
                    c.row_hits,
                    c.underfetches,
                    c.writes,
                    c.conflicts,
                    c.conflict_cycles,
                    c.write_busy_cycles
                )
            })
            .collect();
        format!(
            "{{\"sags\":{},\"cds\":{},\"cells\":[{}]}}",
            self.sags,
            self.cds,
            cells.join(",")
        )
    }

    /// Parses the [`to_csv`](Self::to_csv) format back into a heatmap.
    ///
    /// Only the cell grid round-trips; the per-bank resource clocks are
    /// run-time state and are not serialized. Dimensions are recovered from
    /// the largest coordinates present.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty csv")?;
        let expected =
            "sag,cd,activations,row_hits,underfetches,writes,conflicts,conflict_cycles,write_busy_cycles";
        if header != expected {
            return Err(format!("unexpected csv header: {header:?}"));
        }
        let mut parsed: Vec<(u32, u32, TileCell)> = Vec::new();
        let (mut sags, mut cds) = (0u32, 0u32);
        for (n, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 9 {
                return Err(format!(
                    "line {}: expected 9 fields, got {}",
                    n + 2,
                    fields.len()
                ));
            }
            let num = |i: usize| -> Result<u64, String> {
                fields[i]
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: field {:?}: {e}", n + 2, fields[i]))
            };
            let sag = u32::try_from(num(0)?).map_err(|e| e.to_string())?;
            let cd = u32::try_from(num(1)?).map_err(|e| e.to_string())?;
            sags = sags.max(sag + 1);
            cds = cds.max(cd + 1);
            parsed.push((
                sag,
                cd,
                TileCell {
                    activations: num(2)?,
                    row_hits: num(3)?,
                    underfetches: num(4)?,
                    writes: num(5)?,
                    conflicts: num(6)?,
                    conflict_cycles: num(7)?,
                    write_busy_cycles: num(8)?,
                },
            ));
        }
        if parsed.is_empty() {
            return Err("csv has no cells".to_string());
        }
        let mut map = TileHeatmap::new(sags, cds);
        for (sag, cd, cell) in parsed {
            map.cells[(sag * cds + cd) as usize] = cell;
        }
        Ok(map)
    }

    /// Parses the [`to_json`](Self::to_json) format back into a heatmap
    /// (cells only, like [`from_csv`](Self::from_csv)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Self, String> {
        fn field(obj: &str, name: &str) -> Result<u64, String> {
            let key = format!("\"{name}\":");
            let start = obj
                .find(&key)
                .ok_or_else(|| format!("missing field {name:?}"))?
                + key.len();
            let digits: String = obj[start..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse::<u64>()
                .map_err(|e| format!("field {name:?}: {e}"))
        }
        let sags = u32::try_from(field(text, "sags")?).map_err(|e| e.to_string())?;
        let cds = u32::try_from(field(text, "cds")?).map_err(|e| e.to_string())?;
        if sags == 0 || cds == 0 {
            return Err("degenerate dims".to_string());
        }
        let cells_at = text.find("\"cells\":[").ok_or("missing cells array")? + "\"cells\":[".len();
        let body = &text[cells_at..];
        let end = body.rfind(']').ok_or("unterminated cells array")?;
        let mut map = TileHeatmap::new(sags, cds);
        let mut seen = 0usize;
        for obj in body[..end]
            .split("},")
            .map(|o| o.trim_end_matches(['}', ' ']))
        {
            if obj.is_empty() {
                continue;
            }
            let sag = u32::try_from(field(obj, "sag")?).map_err(|e| e.to_string())?;
            let cd = u32::try_from(field(obj, "cd")?).map_err(|e| e.to_string())?;
            if sag >= sags || cd >= cds {
                return Err(format!("cell ({sag},{cd}) outside {sags}x{cds} grid"));
            }
            map.cells[(sag * cds + cd) as usize] = TileCell {
                activations: field(obj, "activations")?,
                row_hits: field(obj, "row_hits")?,
                underfetches: field(obj, "underfetches")?,
                writes: field(obj, "writes")?,
                conflicts: field(obj, "conflicts")?,
                conflict_cycles: field(obj, "conflict_cycles")?,
                write_busy_cycles: field(obj, "write_busy_cycles")?,
            };
            seen += 1;
        }
        if seen != (sags * cds) as usize {
            return Err(format!("expected {} cells, parsed {seen}", sags * cds));
        }
        Ok(map)
    }

    /// Serialize the full heatmap — cells *and* the per-bank resource
    /// clocks — into a checkpoint. Unlike the CSV/JSON exports, the clocks
    /// must round-trip: conflict accounting after a restore depends on
    /// them, and dropping them would break bit-identical resume.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("heatmap");
        w.u32(self.sags);
        w.u32(self.cds);
        for c in &self.cells {
            w.u64(c.activations);
            w.u64(c.row_hits);
            w.u64(c.underfetches);
            w.u64(c.writes);
            w.u64(c.conflicts);
            w.u64(c.conflict_cycles);
            w.u64(c.write_busy_cycles);
        }
        w.usize(self.clocks.len());
        for (key, clock) in self.clocks.iter() {
            w.u32(key.0);
            w.u32(key.1);
            w.usize(clock.sag_busy_until.len());
            for v in &clock.sag_busy_until {
                w.u64(*v);
            }
            w.usize(clock.cd_busy_until.len());
            for v in &clock.cd_busy_until {
                w.u64(*v);
            }
        }
    }

    /// Restore a heatmap written by [`TileHeatmap::save_state`] into this
    /// one, replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// checkpoint's grid dimensions disagree with this heatmap's.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("heatmap")?;
        let sags = r.u32()?;
        let cds = r.u32()?;
        if sags != self.sags || cds != self.cds {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint heatmap is {sags}x{cds}, observer grid is {}x{}",
                self.sags, self.cds
            )));
        }
        for c in &mut self.cells {
            c.activations = r.u64()?;
            c.row_hits = r.u64()?;
            c.underfetches = r.u64()?;
            c.writes = r.u64()?;
            c.conflicts = r.u64()?;
            c.conflict_cycles = r.u64()?;
            c.write_busy_cycles = r.u64()?;
        }
        let n = r.usize()?;
        self.clocks = BankMap::default();
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let n_sag = r.count()?;
            let mut sag_busy_until = Vec::with_capacity(n_sag);
            for _ in 0..n_sag {
                sag_busy_until.push(r.u64()?);
            }
            let n_cd = r.count()?;
            let mut cd_busy_until = Vec::with_capacity(n_cd);
            for _ in 0..n_cd {
                cd_busy_until.push(r.u64()?);
            }
            self.clocks.insert(
                key,
                ResourceClock {
                    sag_busy_until,
                    cd_busy_until,
                },
            );
        }
        Ok(())
    }

    /// Total conflicts across the grid.
    pub fn total_conflicts(&self) -> u64 {
        self.cells.iter().map(|c| c.conflicts).sum()
    }

    /// Total cycles lost to tile conflicts across the grid.
    pub fn total_conflict_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.conflict_cycles).sum()
    }

    /// Fraction of recorded commands that hit a tile conflict.
    pub fn conflict_rate(&self) -> f64 {
        let cmds: u64 = self
            .cells
            .iter()
            .map(|c| c.activations + c.row_hits + c.underfetches + c.writes)
            .sum();
        if cmds == 0 {
            0.0
        } else {
            self.total_conflicts() as f64 / cmds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tile_back_to_back_conflicts() {
        let mut h = TileHeatmap::new(4, 4);
        // First command occupies (1, 2) until cycle 100.
        h.on_command(0, 0, 1, 2, "activate", true, 0, 10, 100, 100);
        // Second arrives at 20, must wait; issues at 100.
        h.on_command(0, 0, 1, 2, "activate", true, 20, 100, 180, 180);
        let c = h.cell(1, 2);
        assert_eq!(c.activations, 2);
        assert_eq!(c.conflicts, 1);
        assert_eq!(c.conflict_cycles, 80); // 100 - 20
    }

    #[test]
    fn rook_rule_row_and_column_block_but_diagonal_does_not() {
        let mut h = TileHeatmap::new(4, 4);
        h.on_command(0, 0, 1, 1, "activate", true, 0, 0, 100, 100);
        // Same SAG, different CD: blocked.
        h.on_command(0, 0, 1, 3, "activate", true, 10, 100, 190, 190);
        // Same CD, different SAG: blocked.
        h.on_command(0, 0, 3, 1, "activate", true, 10, 100, 190, 190);
        // Different SAG and CD ("diagonal"): free.
        h.on_command(0, 0, 2, 2, "activate", true, 10, 12, 110, 110);
        assert_eq!(h.cell(1, 3).conflicts, 1);
        assert_eq!(h.cell(3, 1).conflicts, 1);
        assert_eq!(h.cell(2, 2).conflicts, 0);
        assert_eq!(h.total_conflicts(), 2);
    }

    #[test]
    fn writes_hold_tiles_until_completion() {
        let mut h = TileHeatmap::new(2, 2);
        // Write bursts end at 50 but the device is locked until 400.
        h.on_command(0, 0, 0, 0, "write", false, 0, 10, 50, 400);
        assert_eq!(h.cell(0, 0).write_busy_cycles, 390);
        // A read arriving at 100 on the same tile conflicts even though
        // the write's burst is long over.
        h.on_command(0, 0, 0, 0, "row-hit", true, 100, 400, 410, 410);
        assert_eq!(h.cell(0, 0).conflicts, 1);
        assert_eq!(h.cell(0, 0).conflict_cycles, 300);
    }

    #[test]
    fn banks_have_independent_clocks() {
        let mut h = TileHeatmap::new(2, 2);
        h.on_command(0, 0, 0, 0, "activate", true, 0, 0, 100, 100);
        // Same tile position in another bank: no conflict.
        h.on_command(0, 1, 0, 0, "activate", true, 10, 12, 112, 112);
        assert_eq!(h.cell(0, 0).conflicts, 0);
        assert_eq!(h.cell(0, 0).activations, 2);
    }

    /// A grid with distinct values in every field of several cells.
    fn busy_map() -> TileHeatmap {
        let mut h = TileHeatmap::new(3, 2);
        h.on_command(0, 0, 0, 0, "activate", true, 0, 5, 90, 90);
        h.on_command(0, 0, 0, 1, "underfetch", true, 1, 9, 95, 95);
        h.on_command(0, 0, 2, 1, "write", false, 2, 11, 40, 400);
        h.on_command(0, 0, 2, 1, "row-hit", true, 50, 400, 410, 410);
        h.on_command(0, 1, 1, 0, "write", false, 3, 3, 30, 120);
        h
    }

    #[test]
    fn csv_round_trips_cell_for_cell() {
        let h = busy_map();
        let parsed = TileHeatmap::from_csv(&h.to_csv()).unwrap();
        assert_eq!(parsed.dims(), h.dims());
        for sag in 0..3 {
            for cd in 0..2 {
                assert_eq!(parsed.cell(sag, cd), h.cell(sag, cd), "cell ({sag},{cd})");
            }
        }
        assert_eq!(parsed.total_conflicts(), h.total_conflicts());
        assert_eq!(parsed.total_conflict_cycles(), h.total_conflict_cycles());
        // The re-serialization is byte-identical.
        assert_eq!(parsed.to_csv(), h.to_csv());
    }

    #[test]
    fn json_round_trips_cell_for_cell() {
        let h = busy_map();
        let parsed = TileHeatmap::from_json(&h.to_json()).unwrap();
        assert_eq!(parsed.dims(), h.dims());
        assert_eq!(parsed.cells(), h.cells());
        assert_eq!(parsed.to_json(), h.to_json());
    }

    #[test]
    fn malformed_exports_are_rejected() {
        assert!(TileHeatmap::from_csv("").is_err());
        assert!(TileHeatmap::from_csv("bogus,header\n0,0,0\n").is_err());
        let h = TileHeatmap::new(2, 2);
        let truncated = &h.to_csv()[..h.to_csv().len() - 4];
        assert!(TileHeatmap::from_csv(truncated).is_err());
        assert!(TileHeatmap::from_json("{}").is_err());
        assert!(TileHeatmap::from_json("{\"sags\":2,\"cds\":2,\"cells\":[]}").is_err());
    }

    #[test]
    fn exports_are_row_major() {
        let mut h = TileHeatmap::new(2, 3);
        h.on_command(0, 0, 1, 2, "row-hit", true, 0, 0, 8, 8);
        let csv = h.to_csv();
        assert!(csv.ends_with("1,2,0,1,0,0,0,0,0\n"));
        assert_eq!(csv.lines().count(), 7);
        let json = h.to_json();
        assert!(json.starts_with("{\"sags\":2,\"cds\":3,\"cells\":[{\"sag\":0,\"cd\":0,"));
        assert!(json.contains("{\"sag\":1,\"cd\":2,\"activations\":0,\"row_hits\":1,"));
    }
}
