// Archive side of the surface_gate self-test: main.cpp calls kept(), and
// nothing outside this file calls unkept().
namespace rdo::surface_fixture {

int kept(int x) { return x + 1; }

int unkept(int x) { return 3 * x; }

}  // namespace rdo::surface_fixture
