"""The hyperelliptic chain relations: closed genus-g fibrations over the sphere
whose signatures have a closed form.

(t_{c_1} ... t_{c_{2g+1}})^{2g+2} and (t_{c_1} ... t_{c_{2g}})^{4g+2} are the
identity in the mapping class group, and their vanishing cycles are all
nonseparating.  The signature of the closed fibration is that of the word
over the disk (the rest is the fiber times a disk, glued along the whole
boundary), and Endo's formula for hyperelliptic fibrations (H. Endo, "Meyer's
signature cocycle and hyperelliptic fibrations", Math. Ann. 316 (2000)) gives
-(g+1)/(2g+1) times the number of cycles: -2(g+1)^2 and -4g(g+1).
"""

from lefsig import Matrix, SymplecticSpace, signature, word_action
from lefsig.cli import FibrationDocument, main, serialize_fibration_document

from .fixtures import chain_classes, even_chain_relation, odd_chain_relation
from .oracles import handle_signature

ENDO = {odd_chain_relation: lambda g: -2 * (g + 1) ** 2,
        even_chain_relation: lambda g: -4 * g * (g + 1)}


def test_the_chain_classes_meet_their_neighbours_once():
    for genus in range(1, 9):
        classes, space = chain_classes(genus), SymplecticSpace(genus)
        assert len(classes) == 2 * genus + 1
        for i, x in enumerate(classes):
            for j, y in enumerate(classes):
                assert abs(space.pairing(x, y)) == (abs(i - j) == 1), (genus, i, j)


def test_the_relations_act_as_the_identity():
    for genus in range(1, 7):
        for relation in ENDO:
            assert word_action(relation(genus)) == Matrix.identity(2 * genus), (relation, genus)


def test_the_relations_meet_endos_formula(capsys, tmp_path):
    path = tmp_path / "relation.json"
    for genus in range(1, 9):
        for relation, endo in ENDO.items():
            w = relation(genus)
            assert len(w) * (genus + 1) % (2 * genus + 1) == 0
            assert endo(genus) == -(genus + 1) * len(w) // (2 * genus + 1)
            assert signature(w).total == endo(genus), (relation, genus)
            path.write_text(serialize_fibration_document(FibrationDocument(w)))
            assert main(["signature", str(path)]) == 0
            assert capsys.readouterr().out == f"signature: {endo(genus)}\n", (relation, genus)


def test_the_relations_meet_the_handlebody_oracle():
    for genus in (1, 2):
        for relation, endo in ENDO.items():
            assert handle_signature(relation(genus)) == endo(genus), (relation, genus)
