"""File formats round-trip exactly; malformed inputs carry line numbers."""

from fractions import Fraction

import pytest

from dcset import (
    BadParameter,
    FatCantor,
    MarginalCaps,
    ParseError,
    Seed,
    SupportMask,
    UnitGrid,
    fat_cantor_build,
    ks_uniform,
    revealing_selectors,
    sample_ensemble,
    sample_uniform,
    shift_hit_curve,
    solve,
    uniform_selector,
)
from dcset.formats import (
    coupling_to_json,
    cover_to_json,
    curve_to_csv,
    dump_json,
    enumeration_to_csv,
    format_fraction,
    parse_caps_side,
    parse_fraction,
    parse_mask,
    report_to_csv,
    report_to_json,
    revealing_to_csv,
    selector_to_csv,
)


class TestMaskFormat:
    def test_roundtrip(self):
        mask = SupportMask.from_cells(3, 4, [(0, 1), (2, 3), (1, 0)])
        assert parse_mask("3 4\n0100\n1000\n0001\n") == mask

    def test_parse_example(self):
        mask = parse_mask("2 2\n10\n01\n")
        assert mask.cells.tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("2\n10\n01\n", 1),
            ("2 2\n10\n", 3),
            ("2 2\n10\n0x\n", 3),
            ("2 2\n101\n010\n", 2),
        ],
    )
    def test_malformed_carries_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_mask(text)
        assert err.value.line == line


class TestCapsFormat:
    def test_parse(self):
        caps = parse_caps_side("0,1/3\n1,1/3\n2,1/3\n", 3)
        assert caps == (Fraction(1, 3),) * 3

    def test_missing_index(self):
        with pytest.raises(ParseError):
            parse_caps_side("0,1/2\n", 2)

    def test_duplicate_index(self):
        with pytest.raises(ParseError) as err:
            parse_caps_side("0,1/2\n0,1/2\n", 2)
        assert err.value.line == 2

    def test_bad_fraction(self):
        with pytest.raises(ParseError):
            parse_fraction("one half")


class TestCantorJson:
    def test_roundtrip_exact(self):
        # The written JSON's rational strings rebuild the set.
        cantor = fat_cantor_build(Fraction(2, 3), 5)
        data = report_to_json(cantor)
        again = FatCantor(data["depth"], data["removed"])
        assert again.removed == cantor.removed
        assert again.gap_measure == cantor.gap_measure
        assert again.depth == cantor.depth

    def test_rational_strings(self):
        data = report_to_json(fat_cantor_build(Fraction(1, 2), 1))
        assert data == {"depth": 1, "removed": [["3/8", "5/8"]]}

    @pytest.mark.parametrize(
        "cantor",
        [
            fat_cantor_build(Fraction(1, 2), 1),
            fat_cantor_build(Fraction(2, 3), 5),
            fat_cantor_build(Fraction(99, 100), 8),
            FatCantor(4, ()),
            FatCantor(2, ((Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 7), Fraction(1, 3)))),
            FatCantor(3, ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(2, 3)))),
        ],
    )
    def test_record_writer_matches_hand_written_dict(self, cantor):
        # The fat Cantor JSON format written out by hand: the oracle for the record writer.
        by_hand = {
            "depth": cantor.depth,
            "removed": [[format_fraction(lo), format_fraction(hi)] for lo, hi in cantor.removed],
        }
        assert report_to_json(cantor) == by_hand
        assert dump_json(report_to_json(cantor)) == dump_json(by_hand)
        assert FatCantor(by_hand["depth"], by_hand["removed"]) == cantor

    @pytest.mark.parametrize(
        "removed",
        [
            [["3/4", "1/4"]],  # reversed: its measure would read 3/2
            [["1/4", "3/4"], ["1/2", "7/8"]],  # overlapping: the overlap counted twice
            [["-1/2", "1/4"]],  # reaching outside (0,1)
        ],
    )
    def test_bad_geometry_rejected(self, removed):
        with pytest.raises(BadParameter):
            FatCantor(1, removed)


class TestWitnessJson:
    def test_coupling_and_cover(self):
        mask = SupportMask.from_cells(2, 2, [(0, 0), (1, 1)])
        caps = MarginalCaps.uniform(2, 2)
        cert = solve(mask, caps)
        cj = coupling_to_json(cert.coupling())
        assert cj["total"] == "1" and cj["mass"][0][0] == "1/2"
        vj = cover_to_json(cert.cover, caps)
        assert Fraction(vj["cost"]) == 1


class TestCsvOutputs:
    def test_enumeration_csv_tags(self):
        enum = sample_uniform(3, 5)
        text = enumeration_to_csv(enum)
        lines = text.strip().splitlines()
        assert lines[0] == "index,point,component"
        assert len(lines) == 4
        assert all(line.endswith(",sample") for line in lines[1:])
        # full float precision round-trips
        assert float(lines[1].split(",")[1]) == enum.points[0]

    def test_selector_csv(self):
        ens = sample_ensemble(32, 40, UnitGrid(4), 6)
        table = uniform_selector(ens, Seed(7))
        lines = selector_to_csv(table).strip().splitlines()
        assert lines[0] == "replica,value,enumeration_index"
        assert len(lines) == 41

    def test_revealing_csv(self):
        text = revealing_to_csv(revealing_selectors(4, Seed(8)))
        assert text.startswith("k,low,mid,high,event,chosen")

    def test_curve_csv(self):
        curve = shift_hit_curve(UnitGrid(4).full(), [8, 16], 30, 9)
        lines = curve_to_csv(curve).strip().splitlines()
        assert lines[0] == "depth,mean,median,expected"
        assert len(lines) == 3


class TestReportSerialization:
    def test_json_and_csv_deterministic(self):
        report = ks_uniform(sample_uniform(100, 11).points, 0.01, seed=11)
        assert report_to_json(report) == report_to_json(report)
        csv_text = report_to_csv(report)
        assert csv_text.splitlines()[0] == "name,statistic,threshold,level,passed,replicas,seed"
        assert report_to_json(report)["passed"] is True
