import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactformer.pdb_io import (
    AA1_TO_3,
    ChainNotFound,
    ChainStructure,
    EmptyInput,
    MalformedLine,
    NonstandardResidue,
    PdbParseError,
    check_completeness,
    parse_structure,
    residues_to_sequence,
)
from test_contacts import mutate


def chain_to_pdb_text(chain: ChainStructure) -> str:
    """Serialize a ChainStructure back to CA ATOM lines (round-trip inverse)."""
    lines = []
    columns = zip(chain.seq_ids, chain.insertion_codes, chain.residues, chain.ca.tolist())
    for serial, (seq_id, icode, res_name, (x, y, z)) in enumerate(columns, start=1):
        lines.append(
            f"ATOM  {serial:5d}  CA  {res_name:>3s} {chain.chain_id}"
            f"{seq_id:4d}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}"
            f"{1.0:6.2f}{0.0:6.2f}           C"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def atom_line(seq_id, res_name="ALA", chain="C", xyz=(1.0, 2.0, 3.0),
              atom=" CA ", altloc=" ", icode=" ", serial=1):
    """Build an ATOM record by the fixed-column layout, field by field."""
    x, y, z = xyz
    line = (
        "ATOM  "          # cols 1-6  record name
        + f"{serial:5d}"   # cols 7-11 serial
        + " "
        + atom             # cols 13-16 atom name
        + altloc           # col 17
        + f"{res_name:>3s}"  # cols 18-20
        + " "
        + chain            # col 22
        + f"{seq_id:4d}"   # cols 23-26
        + icode            # col 27
        + "   "
        + f"{x:8.3f}{y:8.3f}{z:8.3f}"  # cols 31-54
    )
    assert len(line) == 54
    return line


def make_chain(seq_ids, res_names=None, icodes=None, chain="A"):
    res_names = res_names or ["ALA"] * len(seq_ids)
    icodes = icodes or [" "] * len(seq_ids)
    ca = np.array([(float(i), 0.0, 0.0) for i in range(len(seq_ids))]).reshape(-1, 3)
    return ChainStructure(chain, tuple(seq_ids), tuple(icodes), tuple(res_names), ca)


def assert_same_outcome(ours, reference):
    """The same chain, column by column (ca with np.array_equal), or the same
    class and message of error (see outcome)."""
    if isinstance(reference, ChainStructure):
        assert isinstance(ours, ChainStructure), ours
        assert ours.chain_id == reference.chain_id
        assert ours.seq_ids == reference.seq_ids
        assert ours.insertion_codes == reference.insertion_codes
        assert ours.residues == reference.residues
        assert ours.ca.dtype == np.float64 and np.array_equal(ours.ca, reference.ca)
    else:
        assert ours == reference


class TestParseStructure:
    def test_hand_written_line_round_trips_fields(self):
        text = atom_line(1143, xyz=(1.0, 2.0, 3.0)) + "\n"
        chain = parse_structure(text, "C")
        assert len(chain.residues) == 1
        assert chain.seq_ids == (1143,)
        assert chain.ca.tolist() == [[1.0, 2.0, 3.0]]
        assert chain.residues == ("ALA",)
        assert chain.insertion_codes == (" ",)
        assert chain.ca.dtype == np.float64 and not chain.ca.flags.writeable

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_structure("", "A")
        with pytest.raises(EmptyInput):
            parse_structure("   \n  ", "A")

    def test_chain_not_found(self):
        text = atom_line(1, chain="A") + "\n"
        with pytest.raises(ChainNotFound):
            parse_structure(text, "B")

    def test_range_excluding_everything_is_typed_error(self):
        text = atom_line(5, chain="A") + "\n"
        with pytest.raises(ChainNotFound):
            parse_structure(text, "A", residue_range=(100, 200))

    def test_malformed_coordinates(self):
        bad = atom_line(1)[:30] + "  xx.xxx   2.000   3.000"
        with pytest.raises(MalformedLine):
            parse_structure(bad + "\n", "C")

    def test_malformed_only_raised_for_matching_chain(self):
        bad = atom_line(1, chain="A")[:30] + "  xx.xxx   2.000   3.000"
        good = atom_line(2, chain="B")
        chain = parse_structure(bad + "\n" + good + "\n", "B")
        assert list(chain.seq_ids) == [2]

    def test_altloc_keeps_blank_and_a_only(self):
        text = "\n".join([
            atom_line(1, altloc=" ", xyz=(0.0, 0.0, 0.0)),
            atom_line(2, altloc="A", xyz=(1.0, 0.0, 0.0)),
            atom_line(3, altloc="B", xyz=(2.0, 0.0, 0.0)),
        ])
        chain = parse_structure(text, "C")
        assert list(chain.seq_ids) == [1, 2]

    def test_non_ca_and_hetatm_ignored(self):
        text = "\n".join([
            atom_line(1, atom=" N  "),
            atom_line(1, atom=" CA "),
            "HETATM" + atom_line(2)[6:],
            atom_line(3, atom=" CB "),
        ])
        chain = parse_structure(text, "C")
        assert list(chain.seq_ids) == [1]

    def test_stops_at_first_endmdl(self):
        text = "\n".join([
            "MODEL        1",
            atom_line(1),
            "ENDMDL",
            "MODEL        2",
            atom_line(2),
            "ENDMDL",
        ])
        chain = parse_structure(text, "C")
        assert list(chain.seq_ids) == [1]

    def test_residue_range_inclusive_on_seq_id(self):
        text = "\n".join(atom_line(i) for i in range(1, 11))
        chain = parse_structure(text, "C", residue_range=(3, 7))
        assert list(chain.seq_ids) == [3, 4, 5, 6, 7]

    def test_order_follows_file_order(self):
        ids = [9, 2, 5, 1]
        text = "\n".join(atom_line(i) for i in ids)
        chain = parse_structure(text, "C")
        assert list(chain.seq_ids) == ids

    def test_duplicate_seq_id_keeps_first(self):
        text = "\n".join([
            atom_line(4, xyz=(0.0, 0.0, 0.0)),
            atom_line(4, xyz=(9.0, 9.0, 9.0)),
        ])
        chain = parse_structure(text, "C")
        assert len(chain.residues) == 1
        assert chain.ca.tolist() == [[0.0, 0.0, 0.0]]

    def test_non_finite_coordinates_rejected(self):
        line = atom_line(1)[:30] + f"{float('nan'):8.3f}{2.0:8.3f}{3.0:8.3f}"
        with pytest.raises(MalformedLine):
            parse_structure(line + "\n", "C")


def fuzzed_pdb_text(data):
    """Mutated single-model PDB text, or arbitrary text."""
    text = "\n".join([
        "HEADER    FUZZ", atom_line(1), atom_line(2, "MSE", xyz=(-4.5, 5.0, 60.25)),
        atom_line(3, chain="D", icode="B"), "HETATM" + atom_line(4)[6:],
        atom_line(5, altloc="A"), atom_line(6), "ENDMDL", atom_line(7),
    ]) + "\n"
    if data.draw(st.integers(0, 3)):
        pieces = ["x", "nan", "-inf", "1e999", "-", " ", "\n", "ENDMDL\n", "ATOM  ", "\t",
                  "\r", "\u00e9", "\x00", " CA ", "\x85"]
        for _ in range(2):  # up to six edits
            text = mutate(text, data, " \n", 9, pieces)
        return text
    return data.draw(st.text(max_size=120))


@st.composite
def two_chain_texts(draw):
    """Interleaved chains A and B with altlocs, non-CA atoms, HETATM records,
    truncated lines, trailing blanks, bad coordinates and a second MODEL."""
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["atom", "atom", "atom", "hetatm", "model", "cut",
                                     "blanks", "bad"]))
        line = atom_line(draw(st.integers(-1, 6)), draw(st.sampled_from(["ALA", "GLY", "MSE"])),
                         chain=draw(st.sampled_from("AAB")),
                         xyz=draw(st.sampled_from([(1.0, 2.0, 3.0), (-4.5, 0.0, 9.75)])),
                         atom=draw(st.sampled_from([" CA ", " CA ", " CB ", "CA  "])),
                         altloc=draw(st.sampled_from("  AB")), icode=draw(st.sampled_from("  X")))
        if kind == "hetatm":
            line = "HETATM" + line[6:]
        elif kind == "model":
            line = "ENDMDL\nMODEL        2"
        elif kind == "cut":
            line = line[:draw(st.integers(12, 53))]
        elif kind == "blanks":
            line += " " * draw(st.integers(1, 3))
        elif kind == "bad":
            line = line[:draw(st.integers(22, 46))] + draw(st.sampled_from(["x", "nan", " 1e999"]))
        lines.append(line)
    return "\n".join(lines) + "\n"


def spec_parse_structure(pdb_text, chain_id, residue_range=None):
    """parse_structure as one pass over every line: the oracle for its result
    and for the class and message of every error it raises."""
    if not pdb_text.strip():
        raise EmptyInput("empty PDB text")
    if len(chain_id) != 1:
        raise ValueError(f"chain_id must be one character, got {chain_id!r}")

    residues = []
    seen = set()
    for raw in pdb_text.splitlines():
        record = raw[0:6].strip()
        if record == "ENDMDL":
            break
        if record != "ATOM":
            continue
        line = raw.ljust(54)
        if line[12:16].strip() != "CA":
            continue
        if line[16] not in (" ", "A"):
            continue
        if line[21] != chain_id:
            continue
        try:
            seq_id = int(line[22:26])
        except ValueError as exc:
            raise MalformedLine(f"unparseable residue number: {raw!r}") from exc
        if residue_range is not None:
            start, end = residue_range
            if not (start <= seq_id <= end):
                continue
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise MalformedLine(f"unparseable coordinates: {raw!r}") from exc
        if not all(np.isfinite(v) for v in (x, y, z)):
            raise MalformedLine(f"non-finite coordinates: {raw!r}")
        icode = line[26]
        key = (seq_id, icode)
        if key in seen:
            continue
        seen.add(key)
        residues.append((seq_id, icode, line[17:20].strip(), (x, y, z)))

    if not residues:
        where = f"chain {chain_id!r}"
        if residue_range is not None:
            where += f" in range {residue_range}"
        raise ChainNotFound(f"no CA ATOM record matches {where}")
    seq_ids, icodes, names, ca = zip(*residues)
    return ChainStructure(chain_id, seq_ids, icodes, names, np.array(ca, dtype=np.float64))


def outcome(parse, *args):
    """The parsed chain, or the class and message of the ValueError raised."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestParseStructureFuzz:
    @given(data=st.data(), chain_id=st.sampled_from(["C", "C", "C", "D", " ", "", "CD"]),
           residue_range=st.none() | st.tuples(st.integers(-2, 6), st.integers(-2, 6)))
    @settings(max_examples=400, deadline=None)
    def test_raises_only_documented_errors(self, data, chain_id, residue_range):
        """Mutated PDB text, or arbitrary text: a chain, a PdbParseError, or
        the ValueError for a chain id that is not one character."""
        text = fuzzed_pdb_text(data)
        try:
            chain = parse_structure(text, chain_id, residue_range)
        except PdbParseError:
            return
        except ValueError as exc:
            assert len(chain_id) != 1 and "chain_id" in str(exc)
            return
        assert len(chain.residues) >= 1 and np.isfinite(chain.ca).all()

    @given(data=st.data(), chain_id=st.sampled_from(["A", "B", "C", "D", " ", "", "CD"]),
           residue_range=st.none() | st.tuples(st.integers(-2, 6), st.integers(-2, 6)))
    @settings(max_examples=400, deadline=None)
    def test_same_chain_or_same_error_as_line_loop(self, data, chain_id, residue_range):
        text = data.draw(two_chain_texts()) if data.draw(st.booleans()) else fuzzed_pdb_text(data)
        assert_same_outcome(outcome(parse_structure, text, chain_id, residue_range),
                            outcome(spec_parse_structure, text, chain_id, residue_range))

    @given(text=two_chain_texts())
    @settings(max_examples=150, deadline=None)
    def test_repeated_calls_on_one_text_match_fresh_calls(self, text):
        """A, B, then A again on one text object, as prep does for the rows
        that name one file, each equal a call on a fresh copy of the text."""
        for chain_id in "ABA":
            fresh = "".join(list(text))
            assert fresh is not text
            reference = outcome(spec_parse_structure, text, chain_id)
            assert_same_outcome(outcome(parse_structure, text, chain_id), reference)
            assert_same_outcome(outcome(parse_structure, fresh, chain_id), reference)


class TestResiduesToSequence:
    def test_canonical_mapping(self):
        chain = make_chain([1, 2, 3], res_names=["ALA", "CYS", "ASP"])
        assert residues_to_sequence(chain) == "ACD"

    def test_nonstandard_rejected(self):
        chain = make_chain([1, 2], res_names=["ALA", "MSE"])
        with pytest.raises(NonstandardResidue):
            residues_to_sequence(chain)

    def test_length_matches_residue_count_for_range_slice(self):
        # 122-residue slice of a longer chain, selected by residue range
        text = "\n".join(atom_line(i) for i in range(1100, 1300))
        chain = parse_structure(text, "C", residue_range=(1143, 1264))
        seq = residues_to_sequence(chain)
        assert len(seq) == len(chain.residues) == 122


class TestCheckCompleteness:
    def test_contiguous_passes(self):
        report = check_completeness(make_chain([5, 6, 7]))
        assert report.n_gaps == 0 and report.nonstandard_residues == ()

    def test_gap_detected(self):
        report = check_completeness(make_chain([5, 7]))
        assert report.n_gaps == 1 and report.nonstandard_residues == ()

    def test_insertion_code_is_not_a_gap(self):
        chain = make_chain([5, 5, 6], icodes=[" ", "A", " "])
        assert check_completeness(chain).n_gaps == 0

    def test_missing_range_endpoints_count_as_gaps(self):
        chain = make_chain([5, 6, 7])
        assert check_completeness(chain, residue_range=(4, 7)).n_gaps == 1
        assert check_completeness(chain, residue_range=(5, 9)).n_gaps == 1
        assert check_completeness(chain, residue_range=(4, 9)).n_gaps == 2
        assert check_completeness(chain, residue_range=(5, 7)).n_gaps == 0

    def test_nonstandard_reported(self):
        chain = make_chain([1, 2, 3], res_names=["MSE", "ALA", "UNK"])
        report = check_completeness(chain)
        assert report.nonstandard_residues == ("MSE", "UNK")
        assert report.n_gaps == 0


@st.composite
def chain_structures(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    start = draw(st.integers(min_value=-99, max_value=900))
    names = draw(st.lists(st.sampled_from(sorted(AA1_TO_3.values())),
                          min_size=n, max_size=n))
    # coordinates on the 0.001 grid, as in real fixed-column files
    coords = draw(st.lists(
        st.tuples(*(st.integers(min_value=-99999, max_value=99999) for _ in range(3))),
        min_size=n, max_size=n))
    ca = np.array([[c / 1000.0 for c in xyz] for xyz in coords], dtype=np.float64)
    chain_id = draw(st.sampled_from("ABCXYZ"))
    return ChainStructure(chain_id, tuple(range(start, start + n)), (" ",) * n, tuple(names), ca)


@given(chain_structures())
@settings(max_examples=150, deadline=None)
def test_round_trip_serialize_then_parse(chain):
    reparsed = parse_structure(chain_to_pdb_text(chain), chain.chain_id)
    assert_same_outcome(reparsed, chain)


def test_parse_never_returns_empty_structure():
    # wrong chain, no CA, or empty text all raise; they never return []
    for text, chain in [("REMARK nothing\n", "A"),
                        (atom_line(1, atom=" CB ") + "\n", "C")]:
        with pytest.raises((ChainNotFound, EmptyInput)):
            parse_structure(text, chain)
