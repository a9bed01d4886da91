"""The shipped examples must run end to end and print their key results."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "Welcome back, Ada!" in output
        assert "Welcome back, Grace!" in output
        assert "Bob" not in output.split("front-desk mailbox:")[1] \
            .split("engine statistics")[0]

    def test_car_rental_prints_paper_trace(self):
        output = run_example("car_rental.py")
        # the binding tables of Figs. 6-11
        assert "John Doe" in output
        assert "Golf" in output and "Passat" in output
        assert "offer: Polo (class B)" in output
        # the Rome booking yields two offers
        assert "offer: Golf (class B) in Rome" in output
        assert "offer: Laguna (class C) in Rome" in output

    def test_travel_monitoring(self):
        output = run_example("travel_monitoring.py")
        assert "churn" in output
        assert "apology" in output
        assert "vouchers raised back onto the stream: 2" in output

    def test_distributed_services(self):
        output = run_example("distributed_services.py")
        assert "offer over the wire: Polo (class B)" in output
        assert "HTTP services stopped." in output

    def test_semantic_fleet(self):
        output = run_example("semantic_fleet.py")
        assert "Polo reserved for John Doe" in output
        assert "reservedFor" in output
        assert "status = dead" in output
